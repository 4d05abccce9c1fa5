"""Newform coefficients from rational elliptic curves by point counting.

For a model minimal at p, one count gives a_p at every prime: a_p = p -
#{affine points of the model mod p}.  At a good prime that is p + 1 -
#E(F_p); at a bad prime the reduction has one singular point, so it is
p - #E_ns(F_p), which is +1 (split multiplicative), -1 (nonsplit) or 0
(additive).  The count is O(p) for odd p by completing the square: the
substitution u = 2y + a1*x + a3 turns the model into
u^2 = 4x^3 + b2*x^2 + 2*b4*x + b6, so each x contributes 1 + chi(g(x))
points with chi the quadratic character.  At p = 2 the four pairs (x, y)
are tried.  Models that may not be minimal are refused (see curve_level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import factorize, sieve_primes
from .forms import FormSpec
from .hecke import PrimeEigenvalues

GOOD = "good"
SPLIT_MULTIPLICATIVE = "split-multiplicative"
NONSPLIT_MULTIPLICATIVE = "nonsplit-multiplicative"
ADDITIVE = "additive"


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with integer a_i."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("discriminant is zero: not an elliptic curve")

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    @cached_property
    def level(self) -> int:
        """Radical of |disc|: the conductor's prime support for a minimal model.

        A model that may not be minimal is refused with ValueError: one with a
        prime p where v_p(disc) >= 12, v_p(c4) >= 4 and v_p(c6) >= 6.  For
        p >= 5 that test is exact (Kraus); at p = 2 and 3 it is necessary but
        not sufficient, so some minimal models are refused there too.  The
        discriminant is factorized once per curve object.
        """
        b2, b4, b6, _ = self.b_invariants
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        level = 1
        for p, e in factorize(abs(self.discriminant)):
            if e >= 12 and c4 % p**4 == 0 and c6 % p**6 == 0:
                raise ValueError(
                    f"the model may not be minimal at p={p} (v_p of disc, c4, c6 "
                    "at least 12, 4, 6); give a minimal model"
                )
            level *= p
        return level


# Minimal models of the two counterexample curves, by Cremona label.
FIXTURES = {
    "37a1": WeierstrassCurve(0, 0, 1, -1, 0, label="37a1"),
    "53a1": WeierstrassCurve(1, -1, 1, 0, 0, label="53a1"),
}


def parse_curve(text: str) -> WeierstrassCurve:
    """Curve from 'a1,a2,a3,a4,a6' (five comma-separated ASCII integers)."""
    if not text.isascii():
        raise ValueError("curve coefficients must be ASCII integers a1,a2,a3,a4,a6")
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("expected five comma-separated integers a1,a2,a3,a4,a6")
    a = [int(part.strip()) for part in parts]
    return WeierstrassCurve(*a, label=text)


def curve_level(curve: WeierstrassCurve) -> int:
    """The curve's level; see WeierstrassCurve.level."""
    return curve.level


def curve_form(curve: WeierstrassCurve) -> FormSpec:
    label = curve.label or "curve"
    return FormSpec(
        weight=2, level=curve_level(curve), label=label, source=f"elliptic-curve:{label}"
    )


def _char_sum(curve: WeierstrassCurve, p: int) -> int:
    # sum over x in F_p of chi(4x^3 + b2 x^2 + 2 b4 x + b6), odd p only.
    b2, b4, b6, _ = curve.b_invariants
    c3, c2, c1, c0 = 4 % p, b2 % p, (2 * b4) % p, b6 % p
    x = np.arange(p, dtype=np.int64)
    g = ((c3 * x + c2) % p * x + c1) % p * x % p
    g = (g + c0) % p
    is_square = np.zeros(p, dtype=bool)
    is_square[(x * x) % p] = True
    chi = np.where(g == 0, 0, np.where(is_square[g], 1, -1))
    return int(chi.sum())


def _ap(curve: WeierstrassCurve, p: int) -> int:
    """p - #{affine points of the model mod p}: a_p at any prime of a minimal model."""
    if p == 2:
        a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
        affine = sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    else:
        affine = p + _char_sum(curve, p)
    return p - affine


def ap_good(curve: WeierstrassCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a prime of good reduction."""
    if curve.discriminant % p == 0:
        raise ValueError(f"{p} divides the discriminant; use ap_bad")
    ap = _ap(curve, p)
    if ap * ap > 4 * p:
        raise ValueError(f"Hasse bound violated at p={p}: a_p={ap}")
    return ap


def ap_bad(curve: WeierstrassCurve, p: int) -> int:
    """a_p = p - #E_ns(F_p) at a bad prime, for a model minimal at p.

    +1 split multiplicative, -1 nonsplit multiplicative, 0 additive.  The
    reduction has one singular point, which #E_ns drops and the point at
    infinity replaces, so the affine count gives a_p here as at a good
    prime.  prime_table refuses models that may not be minimal.
    """
    if curve.discriminant % p != 0:
        raise ValueError(f"{p} does not divide the discriminant; use ap_good")
    ap = _ap(curve, p)
    if ap not in (-1, 0, 1):
        raise ValueError(f"bad-prime a_p={ap} outside {{-1,0,1}} at p={p}")
    return ap


def reduction_type(curve: WeierstrassCurve, p: int) -> str:
    """Reduction kind of the (assumed minimal) model at p."""
    if curve.discriminant % p != 0:
        return GOOD
    return {
        1: SPLIT_MULTIPLICATIVE,
        -1: NONSPLIT_MULTIPLICATIVE,
        0: ADDITIVE,
    }[ap_bad(curve, p)]


def prime_table(curve: WeierstrassCurve, bound: int) -> PrimeEigenvalues:
    """a_p for every prime p <= bound, from ap_good or ap_bad."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    level = curve_level(curve)
    table = {
        p: ap_bad(curve, p) if level % p == 0 else ap_good(curve, p)
        for p in sieve_primes(bound)
    }
    return PrimeEigenvalues(weight=2, level=level, table=table, bound=bound)

