"""Exact classification of prime-power vanishing and first-vanishing scans.

For a good prime p with a_p != 0, the prime-power coefficients a(p^r) vanish
exactly when the ratio of the Satake parameters is a root of unity zeta with
zeta^(r+1) = 1.  Over a quadratic extension of Q the candidates are the
roots of unity of order 1, 2, 3, 4, 6, and which one occurs is decided by the
trace zeta + 1/zeta = a_p^2 / p^(k-1) - 2.  Everything therefore reduces to
comparing a_p^2 against t * p^(k-1) for t in {1, 2, 3, 4} in exact integers:

    t = 0  (a_p = 0)      zeros at every odd r
    t = 1  (order 3)      zeros at r = 2 mod 3     -- no integer instance:
                          p^(k-1) is never a square for even k
    t = 2  (order 4)      zeros at r = 3 mod 4     -- forces p = 2, a_2 = +-2^(k/2)
    t = 3  (order 6)      zeros at r = 5 mod 6     -- forces p = 3, a_3 = +-3^(k/2)
    t = 4  (zeta = 1)     a(p^r) = (r+1) alpha^r, never zero
    else                  zeta is not a root of unity, never zero

At a bad prime a(p^r) = a_p^r, so zeros occur at every r >= 1 or never.
When p^(k-1) has at least twice the bits of a_p, a_p^2 < p^(k-1) and the
answer is never-zero without building p^(k-1), so any weight is answered at
once.

The obstruction modulus M_f records which of p = 2, 3 can actually vanish at
prime powers: the optimal choice keeps p exactly where classify reports
periodic zeros, that is where p does not divide the level and a(p) =
+-p^(k/2), so M_f | 6 and gcd(M_f, level) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd, prod
from typing import Callable

import numpy as np

from .arith import is_prime
from .series import LANE_PRIMES, QSeries, ResidueSeries, reduce_mod

AP_ZERO = "ap_zero"
PERIODIC = "periodic"
NEVER_ZERO = "never_zero"
BAD_PRIME = "bad_prime"


class GuaranteeViolationError(RuntimeError):
    """A scan hit contradicts a proven guarantee; signals an implementation bug."""


@dataclass(frozen=True)
class VanishClass:
    """Verdict for one prime: exactly which exponents r give a(p^r) = 0.

    kind is one of AP_ZERO (zeros at odd r), PERIODIC with order m in
    {3, 4, 6} (zeros at r = m-1 mod m), NEVER_ZERO, or BAD_PRIME (zeros at
    every r >= 1 iff a_p = 0, signalled by witness = 1, else never).
    witness is the smallest vanishing exponent, when one exists.
    """

    kind: str
    order: int | None = None
    witness: int | None = None

    def __post_init__(self):
        if self.kind == PERIODIC and self.witness != self.order - 1:
            raise ValueError("periodic witness must be order - 1")
        if self.kind == AP_ZERO and self.witness != 1:
            raise ValueError("ap_zero witness must be 1")


def classify(a_p: int, p: int, k: int, p_divides_level: bool = False) -> VanishClass:
    """Classify the zero set of r -> a(p^r) from a_p, in exact integers.

    Purely algebraic: a_p outside the Hasse/Deligne range is accepted (any
    t > 4 lands in the generic never-zero branch).
    """
    if k < 2 or k % 2:
        raise ValueError("even weight k >= 2 required")
    if p_divides_level:
        return VanishClass(BAD_PRIME, witness=1 if a_p == 0 else None)
    if a_p == 0:
        return VanishClass(AP_ZERO, witness=1)
    # p^(k-1) >= 2^((k-1)(bits(p)-1)) >= 2^(2 bits(a_p)) > a_p^2
    if (k - 1) * (p.bit_length() - 1) >= 2 * a_p.bit_length():
        return VanishClass(NEVER_ZERO)
    s = a_p * a_p
    pk = p ** (k - 1)
    if s == 2 * pk:
        return VanishClass(PERIODIC, order=4, witness=3)
    if s == 3 * pk:
        return VanishClass(PERIODIC, order=6, witness=5)
    return VanishClass(NEVER_ZERO)


def zeros_up_to(vc: VanishClass, bound: int) -> set[int]:
    """Exactly the exponents r <= bound with a(p^r) = 0."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if vc.witness is None:
        return set()
    step = {AP_ZERO: 2, BAD_PRIME: 1}.get(vc.kind, vc.order)
    return set(range(vc.witness, bound + 1, step))


@dataclass(frozen=True)
class MfResult:
    """The obstruction modulus M_f | 6 with its per-prime justification."""

    factors_kept: tuple[int, ...]
    justification: dict[int, dict]

    @property
    def value(self) -> int:
        return prod(self.factors_kept)


def compute_mf(level: int, a2: int, a3: int, k: int) -> MfResult:
    """Optimal M_f for trivial character and integer coefficients.

    Keeps p in {2, 3} exactly when classify reports periodic zeros of
    a(p^r), which happens only for p not dividing the level and a(p) =
    +-p^(k/2).  The result divides 6 and is coprime to the level.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    kept = []
    justification: dict[int, dict] = {}
    for p, ap in ((2, a2), (3, a3)):
        divides_level = level % p == 0
        critical = classify(ap, p, k, divides_level).kind == PERIODIC
        if critical:
            kept.append(p)
        justification[p] = {
            "ap": ap,
            "divides_level": divides_level,
            "ap_is_critical": critical,  # a_p = +-p^(k/2)
        }
    return MfResult(factors_kept=tuple(kept), justification=justification)


@dataclass
class ScanReport:
    """Result of a first-vanishing scan over 1 <= n <= bound.

    certification counts the indices certified nonzero by a residue lane
    ("residue") or by exact arithmetic ("exact"), and the exact zeros
    ("zero"); every index is in exactly one of the three.
    lane_moduli are the certifying moduli; the extra ones that an exact eta
    product is lifted from never certify and never appear here.
    """

    bound: int
    first_zero: int | None
    first_zero_is_prime: bool | None
    first_zero_divides_level: bool | None
    coprime_to: int | None
    first_zero_coprime: int | None
    first_zero_coprime_is_prime: bool | None
    first_zero_coprime_divides_level: bool | None
    zeros: list[int] = field(repr=False)
    certification: dict[str, int]
    lane_moduli: tuple[int, ...]


@dataclass(frozen=True)
class ScanSource:
    """What a scan reads: a(n) for 1 <= n <= bound, which is the scan's bound.

    exact(n) gives a(n) exactly.  moduli are the residue lanes the scan may
    certify with, tried in order, and lane(m) builds the lane modulo m; a
    scan calls it at most once per modulus, and only while some index is
    still uncertified by the lanes before it.  Each lane must cover bound.
    A source may carry a lane with no certifying moduli, as a curve's does:
    its scan reads every a(n) exactly.  coeffs --mod prints lane(m), and
    coeffs and mf read series(), the exact a(0..bound); a scan never does.
    """

    bound: int
    exact: Callable[[int], int]
    moduli: tuple[int, ...] = ()
    lane: Callable[[int], ResidueSeries] | None = None
    series: Callable[[], QSeries] | None = field(default=None, kw_only=True)

    @classmethod
    def from_series(cls, qs: QSeries) -> ScanSource:
        """The series itself as exact values, with LANE_PRIMES reduced on demand."""
        return cls(qs.trunc_bound, qs.__getitem__, LANE_PRIMES, partial(reduce_mod, qs),
                   series=lambda: qs)


def first_vanishing(
    source: ScanSource, *, coprime_to: int | None = None, level: int | None = None
) -> ScanReport:
    """Scan for vanishing coefficients over 1 <= n <= source.bound.

    Every nonzero is certified -- by a nonzero residue in some lane of the
    source or by its exact value -- and every reported zero is verified in
    exact arithmetic.  With level set, each reported zero also says whether
    it shares a factor with the level.

    The lanes are built on demand, in the order of source.moduli: lane i is
    built only while some index is zero in lanes 0..i-1, so an index counted
    as "residue" is nonzero in the first lane read for it, and only the
    indices zero in every lane reach source.exact, once each, in order.  A
    lane that does not cover source.bound raises ValueError when it is built.

    With coprime_to set, the first zero coprime to it is also reported.
    coprime_to is (a multiple of) the form's M_f, so a composite coprime hit
    is mathematically impossible and raises GuaranteeViolationError instead
    of being reported quietly.
    """
    bound = source.bound
    if bound < 1:
        raise ValueError("bound must be >= 1")
    pending = np.arange(1, bound + 1)
    for m in source.moduli:
        if not pending.size:
            break
        lane = source.lane(m)
        if lane.trunc_bound < bound:
            raise ValueError(f"residue lanes mod {[m]} do not cover {bound}")
        pending = pending[lane.coeffs[pending] == 0]
    zeros = [n for n in pending.tolist() if source.exact(n) == 0]

    def _flags(n):
        if n is None:
            return None, None
        divides = None if level is None else gcd(n, level) > 1
        return is_prime(n), divides

    first_zero = zeros[0] if zeros else None
    first_coprime = None
    if coprime_to is not None:
        first_coprime = next((n for n in zeros if gcd(n, coprime_to) == 1), None)
    fz_prime, fz_bad = _flags(first_zero)
    fc_prime, fc_bad = _flags(first_coprime)
    if first_coprime is not None and not fc_prime:
        raise GuaranteeViolationError(
            f"composite n = {first_coprime} coprime to M_f = {coprime_to} "
            f"has a(n) = 0; this contradicts the primality guarantee"
        )

    return ScanReport(
        bound=bound,
        first_zero=first_zero,
        first_zero_is_prime=fz_prime,
        first_zero_divides_level=fz_bad,
        coprime_to=coprime_to,
        first_zero_coprime=first_coprime,
        first_zero_coprime_is_prime=fc_prime,
        first_zero_coprime_divides_level=fc_bad,
        zeros=zeros,
        certification={
            "exact": len(pending) - len(zeros),
            "residue": bound - len(pending),
            "zero": len(zeros),
        },
        lane_moduli=source.moduli,
    )
