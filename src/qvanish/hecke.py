"""Extend prime eigenvalues to all coefficients of a normalized eigenform.

For a normalized eigenform with trivial character, integer coefficients are
determined by the values at primes: a(1) = 1, a(mn) = a(m)a(n) for coprime
m, n, and at a prime p the recurrence a(p^r) = a(p) a(p^(r-1)) -
chi0(p) p^(k-1) a(p^(r-2)) with chi0(p) = 0 exactly when p divides the level,
which collapses to a(p^r) = a(p)^r at bad primes.  The recurrence is iterated
in exact integers; no Satake closed form is evaluated here.  A prime table
builds its series multiplicatively (arith.multiplicative) from the
prime-power values over the table's one sieve of primes, and reads a(n),
one or an array of them in one pass, as the product over n's factorization,
found by trial division over the same sieve (arith.prime_factors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# factorize is not called here; the name stays importable from hecke because
# the benchmark's tracing wraps hecke.factorize.
from .arith import factorize, multiplicative, prime_factors, sieve_primes  # noqa: F401
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


# A table's verdict on each of its primes (PrimeEigenvalues.verdicts): the
# exact a(p) is in the table, or a(p) = 0 by Deuring's criterion or by the
# orders of two points, or a(p) != 0 by Deuring's criterion or by the
# ladder's point P1 or P2 (ec.scan_table).  The order is read: a code below
# NONZERO_DEURING knows a(p), and one from it on knows only a(p) != 0.
EXACT, ZERO_DEURING, ZERO_ORDERS, NONZERO_DEURING, NONZERO_P1, NONZERO_P2 = range(6)


@dataclass(eq=False)
class PrimeEigenvalues:
    """Map p -> a(p) for primes p <= bound, with weight and level, and the a(n) it fixes.

    primes are the primes <= bound, one int64 array: sieved here unless the
    caller that built the table passes the ones it sieved for it.  verdicts
    holds one code per prime, EXACT where none is given.  An EXACT prime
    has its a(p) in table.  A curve scan's table (ec.scan_table) proves the
    rest by theorem and computes no value there: a(p) = 0 (ZERO_DEURING,
    ZERO_ORDERS), or a(p) != 0 at a good prime p >= 5 (NONZERO_DEURING,
    NONZERO_P1, NONZERO_P2), so that a(p^e) != 0 for every e (the
    classification in vanish).  Only a table without nonzero verdicts has a
    series.
    """

    weight: int
    level: int
    table: dict[int, int]
    bound: int
    primes: np.ndarray | None = field(default=None, repr=False)
    verdicts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2:
            raise ValueError("weight must be even and >= 2")
        if self.primes is None:
            self.primes = sieve_primes(self.bound)
        self.primes = np.asarray(self.primes, dtype=np.int64)
        if self.verdicts is None:
            self.verdicts = np.full(len(self.primes), EXACT, dtype=np.int8)
        if len(self.verdicts) != len(self.primes):
            raise ValueError("a prime table needs one verdict per prime")
        missing = [p for p in self.primes[self.verdicts == EXACT].tolist() if p not in self.table]
        if missing:
            raise ValueError(f"prime table is missing primes <= bound: {missing[:5]}")

    @cached_property
    def series(self) -> QSeries:
        return qexp_from_primes(self, self.bound)

    def coeff(self, n):
        """a(n) for an int n; for an int64 array of n, the list of their a(n), in one pass.

        a(n) = prod a(p^e) over the prime powers p^e || n, a(1) = 1, with
        every n factored at once by trial division over the table's primes
        up to sqrt(max n) (arith.prime_factors), so nothing is kept between
        calls and nothing is sized by the largest n.  a(p^e) is the
        table's a(p) at e = 1 and coeff_prime_power above, with a(p) = 0 at a
        prime proven zero; it is computed once for each (p, e) of the call.
        a(n) is 0 as soon as one factor is exactly 0.  Otherwise a factor at
        a prime proven nonzero only is refused with ValueError, and so is an
        n outside 1..bound: the first such n of the array raises the error
        that coeff(n) alone raises.
        """
        if not isinstance(n, np.ndarray):
            return self.coeff(np.array([n]))[0]
        outside = (n < 1) | (n > self.bound)
        at, p, e = prime_factors(np.where(outside, 1, n).astype(np.int64), self.primes)
        known = self.verdicts[np.searchsorted(self.primes, p)] < NONZERO_DEURING
        unknown, q = at[~known], p[~known]
        at, p, e = at[known], p[known], e[known]
        # a(p^e) once for each distinct (p, e), keyed p * 64 + e (e < 64 for n < 2^63)
        key = p << 6 | e
        distinct = np.sort(key)
        first = np.ones(len(key), dtype=bool)
        first[1:] = distinct[1:] != distinct[:-1]
        distinct = distinct[first]
        values = [self._prime_power(k >> 6, k & 63) for k in distinct.tolist()]
        which = np.searchsorted(distinct, key)
        zero = np.bincount(at[np.array([v == 0 for v in values], dtype=bool)[which]],
                           minlength=len(n)) > 0
        refused = outside | ~zero & (np.bincount(unknown, minlength=len(n)) > 0)
        if refused.any():
            i = int(refused.argmax())
            if not 1 <= n[i] <= self.bound:
                raise ValueError("n must be >= 1" if n[i] < 1 else
                                 f"n = {n[i]} exceeds the prime-table bound {self.bound}")
            raise ValueError(f"a({n[i]}) needs a({q[unknown == i].max()}), "
                             "which the table certifies nonzero only")
        out = (~zero).astype(np.int64).tolist()
        live = ~zero[at]
        for i, j in zip(at[live].tolist(), which[live].tolist()):
            out[i] *= values[j]
        return out

    def _prime_power(self, p: int, e: int) -> int:
        """a(p^e) at a prime with a known a(p): the table's, or 0 where it is proven zero."""
        a_p = self.table.get(p, 0)
        return a_p if e == 1 else coeff_prime_power(a_p, p, e, self.weight, not self.level % p)


# The benchmark's tracing wraps hecke.CoefficientOracle.coeff, so the name
# stays importable from hecke.
CoefficientOracle = PrimeEigenvalues


def qexp_from_primes(pe: PrimeEigenvalues, bound: int) -> QSeries:
    """The q-expansion a(0..bound), a(0) = 0, from a prime table, multiplicatively."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > pe.bound:
        raise ValueError(f"bound {bound} exceeds prime coverage {pe.bound}")
    if (pe.verdicts >= NONZERO_DEURING).any():
        raise ValueError("the prime table certifies some a(p) nonzero without their values")
    return QSeries(tuple(multiplicative(bound, pe._prime_power, pe.primes)))
