"""Newform coefficients from rational elliptic curves by point counting.

A good prime contributes a_p = p + 1 - #E(F_p); the count is O(p) for odd p
by completing the square (the substitution u = 2y + a1*x + a3 turns the model
into u^2 = 4x^3 + b2*x^2 + 2*b4*x + b6, so each x contributes 1 + chi(g(x))
points with chi the quadratic character).  At a bad prime the nonsingular
count #E_ns(F_p) = p - a_p pins a_p to +1 (split multiplicative), -1
(nonsplit) or 0 (additive).  Input models are assumed minimal; the two
shipped fixtures are minimal Weierstrass models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import radical, sieve_primes
from .forms import FormSpec
from .hecke import CoefficientOracle, PrimeEigenvalues

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


# Minimal models of the two counterexample curves, by Cremona label.
FIXTURES = {
    "37a1": WeierstrassCurve(0, 0, 1, -1, 0, label="37a1"),
    "53a1": WeierstrassCurve(1, -1, 1, 0, 0, label="53a1"),
}


def parse_curve(text: str) -> WeierstrassCurve:
    """Curve from 'a1,a2,a3,a4,a6' (five comma-separated integers)."""
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("expected five comma-separated integers a1,a2,a3,a4,a6")
    a = [int(part.strip()) for part in parts]
    return WeierstrassCurve(*a, label=text)


def curve_level(curve: WeierstrassCurve) -> int:
    """Radical of |disc|: the conductor's prime support for a minimal model."""
    return radical(abs(curve.discriminant))


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


def _count_small(curve: WeierstrassCurve, p: int) -> int:
    # affine points by full enumeration; used at p = 2, 3.
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    n = 0
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                n += 1
    return n


def count_points_naive(curve: WeierstrassCurve, p: int) -> int:
    """#E(F_p) by enumerating every (x, y) pair; the slow reference count."""
    return _count_small(curve, p) + 1


def ap_good(curve: WeierstrassCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a prime of good reduction."""
    if curve.discriminant % p == 0:
        raise ValueError(f"{p} divides the discriminant; use ap_bad")
    if p < 5:
        ap = p + 1 - count_points_naive(curve, p)
    else:
        # #E = p + 1 + char sum, so a_p is minus the sum.
        ap = -_char_sum(curve, p)
    if ap * ap > 4 * p:
        raise ValueError(f"Hasse bound violated at p={p}: a_p={ap}")
    return ap


def _singular_points(curve: WeierstrassCurve, p: int) -> list[tuple[int, int]]:
    # On-curve points where both partials vanish, by enumeration (small p).
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    out = []
    for x in range(p):
        for y in range(p):
            on = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p
            if on:
                continue
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx == 0 and fy == 0:
                out.append((x, y))
    return out


def nonsingular_count(curve: WeierstrassCurve, p: int) -> int:
    """#E_ns(F_p): nonsingular affine points plus the point at infinity."""
    if p < 5:
        return _count_small(curve, p) - len(_singular_points(curve, p)) + 1
    b2, b4, b6, _ = curve.b_invariants
    affine = p + _char_sum(curve, p)
    # On u^2 = g(x), a singular point is (x0, u=0) with g(x0) = g'(x0) = 0.
    c3, c2, c1, c0 = 4 % p, b2 % p, (2 * b4) % p, b6 % p
    x = np.arange(p, dtype=np.int64)
    g = (((c3 * x + c2) % p * x + c1) % p * x + c0) % p
    dg = ((12 % p) * x % p * x + (2 * b2 % p) * x + 2 * b4 % p) % p
    singular = int(np.count_nonzero((g == 0) & (dg == 0)))
    return affine - singular + 1


def ap_bad(curve: WeierstrassCurve, p: int) -> int:
    """a_p at a bad prime, from #E_ns(F_p) = p - a_p.

    +1 split multiplicative, -1 nonsplit multiplicative, 0 additive.  The
    model is assumed minimal at p (true of the shipped fixtures; no global
    minimality test is performed).
    """
    if curve.discriminant % p != 0:
        raise ValueError(f"{p} does not divide the discriminant; use ap_good")
    ap = p - nonsingular_count(curve, p)
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
    """a_p for every prime p <= bound, dispatching on good/bad reduction."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    disc = curve.discriminant
    table: dict[int, int] = {}
    provenance: dict[int, str] = {}
    for p in sieve_primes(bound):
        if disc % p == 0:
            table[p] = ap_bad(curve, p)
            provenance[p] = "bad"
        else:
            table[p] = ap_good(curve, p)
            provenance[p] = "good"
    return PrimeEigenvalues(
        weight=2,
        level=curve_level(curve),
        table=table,
        bound=bound,
        provenance=provenance,
    )


def oracle_for_curve(curve: WeierstrassCurve, bound: int) -> CoefficientOracle:
    """CoefficientOracle covering n <= bound for the curve's newform."""
    return CoefficientOracle(prime_table(curve, bound), spec=curve_form(curve))
