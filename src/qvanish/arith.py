"""Shared integer helpers: primes, factorization, multiplicative tables.

multiplicative builds the table of a multiplicative function from its values
at prime powers; it serves divisor sums and eigenform coefficients alike, so
no index of such a table is factorized.
"""

from __future__ import annotations

from itertools import chain, cycle
from math import isqrt
from typing import Callable

import numpy as np

# Witnesses making Miller-Rabin deterministic for all n < 3.3e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981
# factorize trial-divides by primes up to this bound and no further.
TRIAL_DIVISION_LIMIT = 10**6


def sieve_primes(bound: int) -> np.ndarray:
    """All primes <= bound, ascending in an int64 array, by Eratosthenes on a numpy bool array."""
    if bound < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def prime_factors(ns: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(at, q, e): one entry for each prime power q^e || ns[at], ns an int64 array of n >= 1.

    Trial division of every n at once, by one (len(ns), primes) table of
    remainders over the primes of the caller's ascending sieve up to
    sqrt(max ns), which it must hold; the cofactor left above 1 is prime.
    So memory grows with len(ns) times the primes to sqrt(max ns), not with
    max ns.
    """
    small = primes[: np.searchsorted(primes, isqrt(int(ns.max(initial=1))), side="right")]
    at, q = np.nonzero(ns[:, None] % small == 0)
    q = small[q]
    e, rest, more = np.zeros_like(q), ns[at], np.arange(len(q))
    while len(more):  # the exponent of each q, one division at a time
        rest[more] //= q[more]
        e[more] += 1
        more = more[rest[more] % q[more] == 0]
    cofactor = ns.copy()
    np.floor_divide.at(cofactor, at, q**e)
    big = np.flatnonzero(cofactor > 1)
    return (np.concatenate([at, big]), np.concatenate([q, cofactor[big]]),
            np.concatenate([e, np.ones_like(big)]))


def multiples(primes: np.ndarray, bound: int) -> np.ndarray:
    """p*m for every p in primes and 1 <= m <= bound // p, prime by prime, in one array."""
    counts = bound // primes
    cofactor = np.arange(1, int(counts.sum()) + 1)
    cofactor -= np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(primes, counts) * cofactor


def multiplicative(
    bound: int,
    prime_power: Callable[[int, int], int],
    primes: list[int] | None = None,
    *,
    scale: int = 1,
) -> list[int]:
    """[0, c*f(1), ..., c*f(bound)], c = scale, f multiplicative with f(p^e) = prime_power(p, e).

    Entry n ends as the product of f(p^e) over p^e || n, built by array
    passes, not by a Python step per multiple.  A prime p <= sqrt(bound)
    takes one strided pass over its multiples, each multiplied by f(p^e) for
    the p^e || n; a prime above sqrt(bound) divides its multiples once, and
    no two such primes share one, so all of them take one scatter.

    The table is int64 only where a bound proves every entry fits: an n <=
    bound has at most omega distinct primes (omega primes whose product is
    <= bound), so |f(n)| < 2^(omega * bits), bits that of the largest
    |f(p^e)|, and omega * bits plus the bits of |c| - 1 at most 62 suffices.
    Otherwise it holds Python ints in a numpy object array.  Every entry
    starts at c, so the scale costs no pass of its own.  The table is
    allocated before the primes are sieved, so a bound no memory holds fails
    there at once.  primes, a list or an ascending array, holds every prime
    <= bound when the caller has sieved them already; primes past bound add
    nothing.
    """
    table = np.ones(bound + 1, dtype=np.int64)
    table[0] = 0
    primes = np.asarray(sieve_primes(bound) if primes is None else primes, dtype=np.int64)
    root, end = np.searchsorted(primes, [isqrt(bound), bound], side="right").tolist()
    small = []
    for p in primes[:root].tolist():
        values, q, e = [], p, 1
        while q <= bound:
            values.append(prime_power(p, e))
            q, e = q * p, e + 1
        small.append((p, values))
    large = primes[root:end]
    large_values = [prime_power(p, 1) for p in large.tolist()]
    omega, product = 0, 1
    for p in primes[:64].tolist():  # the product of 64 primes passes any bound
        product *= p
        if product > bound:
            break
        omega += 1
    top = max(map(abs, chain(large_values, *(v for _, v in small))), default=0)
    if omega * top.bit_length() + (abs(scale) - 1).bit_length() > 62:
        table = table.astype(object)
    table[1:] = scale
    for p, values in small:
        # factor[k - 1] = f(p^e) for p^e || p*k: p^e | p*k exactly when p^(e-1) | k
        factor = np.full(bound // p, values[0], dtype=table.dtype)
        step = p
        for value in values[1:]:
            factor[step - 1 :: step] = value
            step *= p
        table[p::p] *= factor
    if len(large):
        values = np.array(large_values, dtype=table.dtype)
        table[multiples(large, bound)] *= np.repeat(values, bound // large)
    return table.tolist()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; valid for n < 3.3e24 (ample for scan indices)."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test witnesses only cover n < {_MR_LIMIT}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division, p ascending.

    Trial division stops at TRIAL_DIVISION_LIMIT, which covers every n below
    its square.  A cofactor left above that square must be proven prime, or
    the call raises ValueError rather than run for ever.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    d, steps = 2, chain((1, 2), cycle((2, 4)))  # 2, 3, then 6j +- 1
    while d * d <= n and d <= TRIAL_DIVISION_LIMIT:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += next(steps)
    if d * d <= n and not (n < _MR_LIMIT and is_prime(n)):
        raise ValueError(
            f"cannot factor: cofactor {n} has no prime factor up to "
            f"{TRIAL_DIVISION_LIMIT} and is not provably prime"
        )
    if n > 1:
        out.append((n, 1))
    return out
