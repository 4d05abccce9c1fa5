"""Extend prime eigenvalues to all coefficients of a normalized eigenform.

For a normalized eigenform with trivial character, integer coefficients are
determined by the values at primes: a(1) = 1, a(mn) = a(m)a(n) for coprime
m, n, and at a prime p the recurrence a(p^r) = a(p) a(p^(r-1)) -
chi0(p) p^(k-1) a(p^(r-2)) with chi0(p) = 0 exactly when p divides the level,
which collapses to a(p^r) = a(p)^r at bad primes.  The recurrence is iterated
in exact integers; no Satake closed form is evaluated here.  A prime table
serves a(n) from its series, built once on first use, multiplicatively
(arith.multiplicative) from the prime-power values; no index is factorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# factorize is not called here; the name stays importable from hecke because
# the benchmark's tracing wraps hecke.factorize.
from .arith import factorize, multiplicative, sieve_primes  # noqa: F401
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
    """Map p -> a(p) for every prime p <= bound, with weight and level, and the a(n) it fixes."""

    weight: int
    level: int
    table: dict[int, int]
    bound: int

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2:
            raise ValueError("weight must be even and >= 2")
        missing = [p for p in sieve_primes(self.bound) if p not in self.table]
        if missing:
            raise ValueError(f"prime table is missing primes <= bound: {missing[:5]}")

    @cached_property
    def series(self) -> QSeries:
        return qexp_from_primes(self, self.bound)

    def coeff(self, n: int) -> int:
        """a(n) = prod a(p^e) over the prime powers p^e || n; a(1) = 1."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.bound:
            raise ValueError(f"n = {n} exceeds the prime-table bound {self.bound}")
        return self.series.coeffs[n]


# The benchmark's tracing wraps hecke.CoefficientOracle.coeff, so the name
# stays importable from hecke.
CoefficientOracle = PrimeEigenvalues


def qexp_from_primes(pe: PrimeEigenvalues, bound: int) -> QSeries:
    """The q-expansion a(0..bound), a(0) = 0, from a prime table, multiplicatively."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > pe.bound:
        raise ValueError(f"bound {bound} exceeds prime coverage {pe.bound}")
    table, k, level = pe.table, pe.weight, pe.level
    a = multiplicative(bound, lambda p, e: coeff_prime_power(table[p], p, e, k, not level % p))
    return QSeries(tuple(a))
