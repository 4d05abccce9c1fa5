"""Newform coefficients from rational elliptic curves by point counting.

For a model minimal at p, one count gives a_p at every prime: a_p = p -
#{affine points of the model mod p}.  At a good prime that is p + 1 -
#E(F_p); at a bad prime the reduction has one singular point, so it is
p - #E_ns(F_p), which is +1 (split multiplicative), -1 (nonsplit) or 0
(additive).  _ap picks one of two exact counts per prime:

- Good primes above BSGS_CROSSOVER: Shanks' baby-step giant-step finds the
  orders N in the Hasse interval [p+1-2*sqrt(p), p+1+2*sqrt(p)] with
  N*P = O for a few points P; when one N is left, #E(F_p) = N.  This costs
  O(p^(1/4)) group operations per point.
- Every other odd prime, and any good prime where BSGS leaves more than one
  N: the character sum, O(p).  The substitution u = 2y + a1*x + a3 turns
  the model into u^2 = 4x^3 + b2*x^2 + 2*b4*x + b6, so each x contributes
  1 + chi(g(x)) points with chi the quadratic character.

At p = 2 the four pairs (x, y) are tried.  Models that may not be minimal
are refused (see WeierstrassCurve.level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .arith import factorize, sieve_primes
from .hecke import PrimeEigenvalues


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

    @cached_property
    def b_invariants(self) -> tuple[int, int, int]:
        """(b2, b4, b6)."""
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6

    @cached_property
    def c_invariants(self) -> tuple[int, int]:
        """(c4, c6); y^2 = x^3 - 27*c4*x - 54*c6 is the curve over F_p for p >= 5."""
        b2, b4, b6 = self.b_invariants
        return b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6

    @cached_property
    def discriminant(self) -> int:
        c4, c6 = self.c_invariants
        return (c4**3 - c6**2) // 1728

    @cached_property
    def level(self) -> int:
        """Radical of |disc|: the conductor's prime support for a minimal model.

        A model that may not be minimal is refused with ValueError: one with a
        prime p where v_p(disc) >= 12, v_p(c4) >= 4 and v_p(c6) >= 6.  For
        p >= 5 that test is exact (Kraus); at p = 2 and 3 it is necessary but
        not sufficient, so some minimal models are refused there too.  The
        discriminant is factorized once per curve object.
        """
        c4, c6 = self.c_invariants
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
    """Curve from 'a1,a2,a3,a4,a6' (five comma-separated ASCII integers).

    The label is the text without surrounding whitespace; any other
    non-printable character is refused, so the label fits one header line.
    """
    text = text.strip()
    if not (text.isascii() and text.isprintable()):
        raise ValueError("curve coefficients must be ASCII integers a1,a2,a3,a4,a6")
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("expected five comma-separated integers a1,a2,a3,a4,a6")
    a = [int(part.strip()) for part in parts]
    return WeierstrassCurve(*a, label=text)


def _char_sum(curve: WeierstrassCurve, p: int) -> int:
    """Sum over x in F_p of chi(4x^3 + b2*x^2 + 2*b4*x + b6), odd p only."""
    b2, b4, b6 = curve.b_invariants
    x = np.arange(p, dtype=np.int64)
    # Horner with two reductions: every partial value stays below 6p^2,
    # exact in int64 for p < 10^9.
    g = ((4 * x + b2 % p) * x + 2 * b4 % p) % p
    g = (g * x + b6 % p) % p
    # w[v] = #{u : u^2 = v}: 1 at 0, 2 at nonzero squares, 0 elsewhere.
    half = x[: (p + 1) // 2]
    w = np.zeros(p, dtype=np.int8)
    w[half * half % p] = 2
    w[0] = 1
    return int(w[g].sum(dtype=np.int64)) - p


# Above this prime a good prime's count goes by baby-step giant-step; at and
# below it, the character sum is faster.  Measured per prime (best of 5 over
# 60 primes; Python 3.11, numpy 2.4.6, shared 2-core x86-64 host) on 37a1 and
# 53a1: the two routes cost the same between p = 1500 and 2000 (55-63 us
# each); BSGS takes ~90 us against ~260 us at p = 14000 and ~150 us against
# ~6.5 ms at 2*10^5.  prime_table to 14000 costs the same, within noise, for
# any crossover from 500 to 4000.
BSGS_CROSSOVER = 1800
# Points tried before a good prime falls back to the character sum.
BSGS_POINTS = 8


def _add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a*x + b over F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _mul(n: int, P, a: int, p: int):
    """n*P for n >= 0, by double-and-add."""
    result = None
    while n:
        if n & 1:
            result = _add(result, P, a, p)
        n >>= 1
        if n:
            P = _add(P, P, a, p)
    return result


def _annihilators(P, a: int, p: int, lo: int, hi: int) -> set[int]:
    """Every N in [lo, hi] with N*P = O, by baby-step giant-step.

    Baby steps store x(jP) for j = 1..m.  If two of them meet (jP = -j'P),
    or jP = O or has y = 0, the order n of P is at most 2m and is read off
    directly.  Otherwise n > 2m, so each window [c-m, c+m] holds at most one
    N with N*P = O, and it shows as cP = -kP for k = N - c in [-m, m]: a
    lookup of x(cP) among the baby steps, with the sign of y picking k.
    """
    m = isqrt((hi - lo) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    Q = None
    for j in range(1, m + 1):
        Q = _add(Q, P, a, p)
        if Q is None:
            n = j
        elif Q[1] == 0:
            n = 2 * j
        elif Q[0] in baby:
            n = j + baby[Q[0]][0]
        else:
            baby[Q[0]] = (j, Q[1])
            continue
        return set(range(-(-lo // n) * n, hi + 1, n))
    giant = _add(_add(Q, Q, a, p), P, a, p)  # (2m + 1)P
    found = set()
    c = lo + m
    R = _mul(c, P, a, p)
    while c - m <= hi:
        if R is None:
            found.add(c)
        elif R[0] in baby:
            k, y = baby[R[0]]
            found.add(c - k if R[1] == y else c + k)
        R = _add(R, giant, a, p)
        c += 2 * m + 1
    return {n for n in found if lo <= n <= hi}


def _bsgs_ap(curve: WeierstrassCurve, p: int) -> int | None:
    """a_p at a good prime p >= 5 from the group order, or None if not pinned down.

    Works on the short model y^2 = x^3 + a*x + b, a = -27*c4, b = -54*c6,
    and takes x = 0, 1, 2, ... in turn.  Where r = x^3 + a*x + b is a nonzero
    square, (x*r, r^2) is a point of y^2 = X^3 + a*r^2*X + b*r^3: the twist
    of the model by the square r, so the same curve, and no square root is
    taken.  Each point leaves the orders N in the Hasse interval with N*P = O;
    once one N is left, #E(F_p) = N.  After BSGS_POINTS points with more than
    one left, the answer is None.
    """
    c4, c6 = curve.c_invariants
    a, b = -27 * c4 % p, -54 * c6 % p
    width = isqrt(4 * p)
    lo, hi = p + 1 - width, p + 1 + width
    orders = None
    points = 0
    for x in range(p):
        if points == BSGS_POINTS:
            break
        r = (x * x * x + a * x + b) % p
        if r == 0 or pow(r, (p - 1) // 2, p) != 1:
            continue
        points += 1
        r2 = r * r % p
        found = _annihilators((x * r % p, r2), a * r2 % p, p, lo, hi)
        orders = found if orders is None else orders & found
        if len(orders) == 1:
            return p + 1 - orders.pop()
    return None


def _ap(curve: WeierstrassCurve, p: int) -> int:
    """p - #{affine points of the model mod p}: a_p at any prime of a minimal model.

    Good primes above BSGS_CROSSOVER go by _bsgs_ap; small primes, bad
    primes and the primes BSGS leaves open go by the character sum.
    """
    if p == 2:
        a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
        return 2 - sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    if p > BSGS_CROSSOVER and curve.discriminant % p:
        ap = _bsgs_ap(curve, p)
        if ap is not None:
            return ap
    return -_char_sum(curve, p)


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


def prime_table(curve: WeierstrassCurve, bound: int) -> PrimeEigenvalues:
    """a_p for every prime p <= bound (none for bound 1), from ap_good or ap_bad."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    level = curve.level
    table = {
        p: ap_bad(curve, p) if level % p == 0 else ap_good(curve, p)
        for p in sieve_primes(bound)
    }
    return PrimeEigenvalues(weight=2, level=level, table=table, bound=bound)

