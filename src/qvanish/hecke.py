"""Extend prime eigenvalues to all coefficients of a normalized eigenform.

For a normalized eigenform with trivial character, integer coefficients are
determined by the values at primes: a(1) = 1, a(mn) = a(m)a(n) for coprime
m, n, and at a prime p the recurrence a(p^r) = a(p) a(p^(r-1)) -
chi0(p) p^(k-1) a(p^(r-2)) with chi0(p) = 0 exactly when p divides the level,
which collapses to a(p^r) = a(p)^r at bad primes.  The recurrence is iterated
in exact integers; no Satake closed form is evaluated here.  A prime table
builds its series multiplicatively (arith.multiplicative) from the
prime-power values over the table's one sieve of primes, and reads a single
a(n) as the product over n's factorization, found in a smallest-prime-factor
table over the same sieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# factorize is not called here; the name stays importable from hecke because
# the benchmark's tracing wraps hecke.factorize.
from .arith import factorize, multiplicative, sieve_primes, smallest_prime_factors  # noqa: F401
from .series import QSeries


def coeff_prime_power(
    a_p: int, p: int, r: int, k: int, p_divides_level: bool = False
) -> int:
    """a(p^r) from a(p), exactly.  r = 0 gives 1, r = 1 gives a_p.

    p^(k-1) is built only when the recurrence runs, at a good prime with
    r >= 2, so r <= 1 costs nothing at any weight.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if k < 2 or k % 2:
        raise ValueError("even weight k >= 2 required")
    if p_divides_level or r <= 1:
        return a_p**r
    prev, cur = 1, a_p
    pk = p ** (k - 1)
    for _ in range(r - 1):
        prev, cur = cur, a_p * cur - pk * prev
    return cur


@dataclass
class PrimeEigenvalues:
    """Map p -> a(p) for primes p <= bound, with weight and level, and the a(n) it fixes.

    primes are the primes <= bound: sieved here unless the caller that built
    the table passes the ones it sieved for it.  Each of them is in table,
    with its exact a(p), or in nonzero: a good prime where a(p) != 0 is
    proven but not computed, so that a(p^e) != 0 for every e (the
    classification in vanish, at a prime p >= 5).  In a curve scan's table
    (ec.scan_table) a 0 may be certified by theorem, Deuring's criterion or
    the orders of two points, rather than counted.  Only a table without
    nonzero primes has a series.
    """

    weight: int
    level: int
    table: dict[int, int]
    bound: int
    primes: list[int] | None = field(default=None, repr=False)
    nonzero: frozenset[int] = field(default=frozenset(), repr=False)

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2:
            raise ValueError("weight must be even and >= 2")
        if self.primes is None:
            self.primes = sieve_primes(self.bound)
        missing = [p for p in self.primes if p not in self.table and p not in self.nonzero]
        if missing:
            raise ValueError(f"prime table is missing primes <= bound: {missing[:5]}")

    @cached_property
    def series(self) -> QSeries:
        return qexp_from_primes(self, self.bound)

    @cached_property
    def _spf(self) -> np.ndarray:
        """spf[n], the smallest prime factor of n <= bound (spf[1] = 1), from the table's sieve."""
        return smallest_prime_factors(self.bound, self.primes)

    def coeff(self, n: int) -> int:
        """a(n) = prod a(p^e) over the prime powers p^e || n; a(1) = 1.

        It is 0 as soon as one factor is exactly 0.  Otherwise a factor at a
        prime the table only certifies nonzero is refused with ValueError.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.bound:
            raise ValueError(f"n = {n} exceeds the prime-table bound {self.bound}")
        value, rest, unknown = 1, n, None
        while rest > 1:
            p, e = self._spf.item(rest), 0
            while rest % p == 0:
                rest //= p
                e += 1
            a_p = self.table.get(p)
            if a_p is None:
                unknown = p
                continue
            if e > 1:
                a_p = coeff_prime_power(a_p, p, e, self.weight, not self.level % p)
            if a_p == 0:
                return 0
            value *= a_p
        if unknown is not None:
            raise ValueError(f"a({n}) needs a({unknown}), which the table certifies nonzero only")
        return value


# The benchmark's tracing wraps hecke.CoefficientOracle.coeff, so the name
# stays importable from hecke.
CoefficientOracle = PrimeEigenvalues


def qexp_from_primes(pe: PrimeEigenvalues, bound: int) -> QSeries:
    """The q-expansion a(0..bound), a(0) = 0, from a prime table, multiplicatively."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > pe.bound:
        raise ValueError(f"bound {bound} exceeds prime coverage {pe.bound}")
    if pe.nonzero:
        raise ValueError("the prime table certifies some a(p) nonzero without their values")
    table, k, level = pe.table, pe.weight, pe.level

    def prime_power(p: int, e: int) -> int:
        # a(p) is the table's own; only a higher power runs the recurrence
        return table[p] if e == 1 else coeff_prime_power(table[p], p, e, k, not level % p)

    return QSeries(tuple(multiplicative(bound, prime_power, pe.primes)))
