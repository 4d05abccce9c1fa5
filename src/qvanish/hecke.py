"""Extend prime eigenvalues to all coefficients of a normalized eigenform.

For a normalized eigenform with trivial character, integer coefficients are
determined by the values at primes: a(1) = 1, a(mn) = a(m)a(n) for coprime
m, n, and at a prime p the recurrence a(p^r) = a(p) a(p^(r-1)) -
chi0(p) p^(k-1) a(p^(r-2)) with chi0(p) = 0 exactly when p divides the level,
which collapses to a(p^r) = a(p)^r at bad primes.  The recurrence is iterated
in exact integers; no Satake closed form is evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorize, sieve_primes
from .series import QSeries


def coeff_prime_power(
    a_p: int, p: int, r: int, k: int, p_divides_level: bool = False
) -> int:
    """a(p^r) from a(p), exactly.  r = 0 gives 1, r = 1 gives a_p."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if k < 2 or k % 2:
        raise ValueError("even weight k >= 2 required")
    if p_divides_level:
        return a_p**r
    if r == 0:
        return 1
    prev, cur = 1, a_p
    pk = p ** (k - 1)
    for _ in range(r - 1):
        prev, cur = cur, a_p * cur - pk * prev
    return cur


@dataclass
class PrimeEigenvalues:
    """Map p -> a(p) for every prime p <= bound, with weight/level context."""

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


class CoefficientOracle:
    """a(n) lookups over a prime table."""

    def __init__(self, primes: PrimeEigenvalues):
        self.primes = primes

    def coeff(self, n: int) -> int:
        """a(n) = prod a(p^e) over the factorization of n; a(1) = 1."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.primes.bound:
            raise ValueError(
                f"n = {n} exceeds the prime-table bound {self.primes.bound}"
            )
        pe = self.primes
        out = 1
        for p, e in factorize(n):
            out *= coeff_prime_power(
                pe.table[p], p, e, pe.weight, pe.level % p == 0
            )
        return out


def qexp_from_primes(pe: PrimeEigenvalues, bound: int) -> QSeries:
    """Assemble the q-expansion up to bound from a prime table."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > pe.bound:
        raise ValueError(f"bound {bound} exceeds prime coverage {pe.bound}")
    oracle = CoefficientOracle(pe)
    return QSeries((0,) + tuple(oracle.coeff(n) for n in range(1, bound + 1)))
