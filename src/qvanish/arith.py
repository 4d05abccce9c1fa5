"""Shared integer helpers: primes, factorization, multiplicative tables.

multiplicative builds the table of a multiplicative function from its values
at prime powers; it serves divisor sums and eigenform coefficients alike, so
no index of such a table is factorized.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress, cycle
from math import isqrt
from typing import Callable

import numpy as np

# Witnesses making Miller-Rabin deterministic for all n < 3.3e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981
# factorize trial-divides by primes up to this bound and no further.
TRIAL_DIVISION_LIMIT = 10**6


def sieve_primes(bound: int) -> list[int]:
    """All primes <= bound, by Eratosthenes."""
    if bound < 2:
        return []
    flags = bytearray(b"\x01") * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            start = p * p
            flags[start : bound + 1 : p] = b"\x00" * ((bound - start) // p + 1)
    return list(compress(range(bound + 1), flags))


def smallest_prime_factors(bound: int, primes: list[int]) -> np.ndarray:
    """spf[n], the smallest prime factor of n <= bound (spf[1] = 1), from primes.

    primes is a caller's sieve, which holds every prime up to sqrt(bound):
    one strided pass per such prime, the largest first, so a smaller prime
    overwrites the multiples it shares with it.
    """
    spf = np.arange(bound + 1, dtype=np.min_scalar_type(bound))
    for p in reversed(primes[: bisect_right(primes, isqrt(bound))]):
        spf[p * p :: p] = p
    return spf


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
    there at once.  primes holds every prime <= bound when the caller has
    sieved them already; primes past bound add nothing.
    """
    table = np.ones(bound + 1, dtype=np.int64)
    table[0] = 0
    if primes is None:
        primes = sieve_primes(bound)
    root = isqrt(bound)
    small, large = [], []
    for p in primes:
        if p <= root:
            values, q, e = [], p, 1
            while q <= bound:
                values.append(prime_power(p, e))
                q, e = q * p, e + 1
            small.append((p, values))
        elif p <= bound:
            large.append(p)
        else:
            break
    large_values = [prime_power(p, 1) for p in large]
    omega, product = 0, 1
    for p in primes:
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
    if large:
        large_primes = np.array(large, dtype=np.int64)
        values = np.array(large_values, dtype=table.dtype)
        table[multiples(large_primes, bound)] *= np.repeat(values, bound // large_primes)
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
