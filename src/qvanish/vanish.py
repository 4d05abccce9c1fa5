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
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, Callable

import numpy as np

from .arith import is_prime, multiples
from .series import LANE_PRIMES, QSeries, ResidueSeries, reduce_mod

if TYPE_CHECKING:
    from .hecke import PrimeEigenvalues

AP_ZERO = "ap_zero"
PERIODIC = "periodic"
NEVER_ZERO = "never_zero"
BAD_PRIME = "bad_prime"
# a scan's report keeps the first ZEROS_CAP zeros and counts the rest
ZEROS_CAP = 1000


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
    ("residue") or by exact arithmetic ("exact": for a curve, an index none
    of whose prime powers vanishes, by its primes' exact values and the
    certificates of ec.scan_table, a ladder point, two points' orders or
    Deuring's criterion), and the exact zeros ("zero"); every index is in
    exactly one of the three.  zeros are the first ZEROS_CAP of them, and
    zeros_omitted counts the rest, so the report holds what scan prints.
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
    zeros_omitted: int
    certification: dict[str, int]
    lane_moduli: tuple[int, ...]


@dataclass(frozen=True)
class ScanSource:
    """What a scan reads: a(n) for 1 <= n <= bound, which is the scan's bound.

    exact(n) gives a(n) exactly.  moduli are the residue lanes the scan may
    certify with, tried in order, and lane(m) builds the lane modulo m; a
    scan calls it at most once per modulus, and only while some index is
    still uncertified by the lanes before it and not fixed by them.  Each
    lane must cover bound.  reach(i) is how far the first i lanes fix a(n):
    the residues of a(n) modulo moduli[:i] determine it for every
    n <= reach(i), as Deligne's bound makes them for an eta product; the
    default reach is 0, lanes that fix nothing.  coeffs --mod prints
    lane(m), and coeffs and mf read series(), the exact a(0..bound); a scan
    never does.  The product forms, E4, E6 and files are read through a
    source; a curve is scanned from its primes by prime_sieve instead.
    """

    bound: int
    exact: Callable[[int], int]
    moduli: tuple[int, ...] = ()
    lane: Callable[[int], ResidueSeries] | None = None
    series: Callable[[], QSeries] | None = field(default=None, kw_only=True)
    reach: Callable[[int], int] = field(default=lambda count: 0, kw_only=True)

    @classmethod
    def from_series(cls, qs: QSeries) -> ScanSource:
        """The series itself as exact values, with LANE_PRIMES reduced on demand."""
        return cls(qs.trunc_bound, qs.__getitem__, LANE_PRIMES, partial(reduce_mod, qs),
                   series=lambda: qs)


def first_vanishing(
    source: ScanSource, *, coprime_to: int | None = None, level: int | None = None
) -> ScanReport:
    """Scan for vanishing coefficients over 1 <= n <= source.bound, index by index.

    Every nonzero is certified -- by a nonzero residue in some lane of the
    source or by its exact value -- and every reported zero is verified in
    exact arithmetic.  This pass serves Delta, the eta quotients, E4, E6 and
    files; curves take prime_sieve.  With level set, each reported zero also
    says whether it shares a factor with the level.

    The lanes are built on demand, in the order of source.moduli: lane i is
    built only while some index is zero in lanes 0..i-1 and the largest
    such index lies past source.reach(i), so an index counted as "residue"
    is nonzero in the first lane read for it.  Once the largest open index
    is within reach, lanes 0..i-1 fix every open a(n) at 0, and no later
    lane could certify one.  Only the indices zero in every lane built reach
    source.exact, once each, in order, so each zero is still read exactly.
    A lane that does not cover source.bound raises ValueError when it is
    built.

    With coprime_to set, the first zero coprime to it is also reported.
    coprime_to is (a multiple of) the form's M_f, so a composite coprime hit
    is mathematically impossible and raises GuaranteeViolationError instead
    of being reported quietly.
    """
    bound = source.bound
    if bound < 1:
        raise ValueError("bound must be >= 1")
    pending = np.arange(1, bound + 1)
    for built, m in enumerate(source.moduli):
        if not pending.size or int(pending[-1]) <= source.reach(built):
            break
        lane = source.lane(m)
        if lane.trunc_bound < bound:
            raise ValueError(f"residue lanes mod {[m]} do not cover {bound}")
        pending = pending[lane.coeffs[pending] == 0]
    exact_zero = (source.exact(n) == 0 for n in pending.tolist())
    zeros = pending[np.fromiter(exact_zero, bool, pending.size)]
    return _report(bound, zeros, bound - len(pending), source.moduli, coprime_to, level)


def prime_sieve(pe: PrimeEigenvalues, *, coprime_to: int | None = None) -> ScanReport:
    """Scan a normalized eigenform over 1 <= n <= pe.bound from its primes alone.

    a(n) is the product of a(p^e) over p^e || n, and classify gives every e
    with a(p^e) = 0, so a(n) = 0 exactly when one p^e || n has such an e.
    Only a prime with an exact a_p in pe.table can have one: pe.nonzero
    holds good primes p >= 5 with a_p != 0, where no a(p^e) vanishes.  One
    boolean per index marks the zeros: a strided pass for each such p^e with
    p^2 <= bound, and one scatter for the primes above, where e = 1 and
    a(p) = a_p, so their zeros are read from the table with no classify.
    There are no lanes, so every nonzero counts as "exact", certified by the
    table's values and its nonzero certificates.  The zeros the report keeps
    are read again through pe.coeff, the product over n's factorization, and
    one that is not 0 raises GuaranteeViolationError.  level and coprime_to
    are as in first_vanishing, with pe.level as the level.
    """
    bound, k, root = pe.bound, pe.weight, isqrt(pe.bound)
    zero = np.zeros(bound + 1, dtype=bool)
    for p, a_p in pe.table.items():
        if p > root:
            continue
        top = 1
        while p ** (top + 1) <= bound:
            top += 1
        for e in zeros_up_to(classify(a_p, p, k, not pe.level % p), top):
            q = p**e
            hit = np.ones(bound // q, dtype=bool)
            hit[p - 1 :: p] = False  # q*m with p | m has p^(e+1) | q*m
            zero[q::q] |= hit
    large = [p for p, a_p in pe.table.items() if p > root and a_p == 0]
    zero[multiples(np.array(large, dtype=np.int64), bound)] = True
    report = _report(bound, np.flatnonzero(zero), 0, (), coprime_to, pe.level)
    for n in report.zeros:
        value = pe.coeff(n)
        if value != 0:
            raise GuaranteeViolationError(f"the sieve marks a({n}) zero; its factors give {value}")
    return report


def _report(bound, zeros, residue, moduli, coprime_to, level) -> ScanReport:
    """The report of a scan to bound: its zeros, one sorted int64 array, and residue count."""

    def _flags(n):
        if n is None:
            return None, None
        divides = None if level is None else gcd(n, level) > 1
        return is_prime(n), divides

    kept, rest = zeros[:ZEROS_CAP].tolist(), zeros[ZEROS_CAP:]
    first_zero = int(zeros[0]) if zeros.size else None
    first_coprime = None
    if coprime_to is not None:
        # the kept zeros one by one; a mask over the rest only if none of them is coprime
        first_coprime = next((n for n in kept if gcd(n, coprime_to) == 1), None)
        if first_coprime is None and (coprime := np.gcd(rest, coprime_to) == 1).any():
            first_coprime = int(rest[coprime.argmax()])
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
        zeros=kept,
        zeros_omitted=len(rest),
        certification={
            "exact": bound - residue - len(zeros),
            "residue": residue,
            "zero": len(zeros),
        },
        lane_moduli=moduli,
    )
