"""Shared integer helpers: primes, factorization, multiplicative tables.

multiplicative builds the table of a multiplicative function from its values
at prime powers; it serves divisor sums and eigenform coefficients alike, so
no index of such a table is factorized.
"""

from __future__ import annotations

from typing import Callable

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
    return [i for i, f in enumerate(flags) if f]


def multiplicative(bound: int, prime_power: Callable[[int, int], int]) -> list[int]:
    """[0, f(1), ..., f(bound)] for the multiplicative f with f(p^e) = prime_power(p, e).

    Each prime power p^e <= bound multiplies its value into every n with
    p^e || n, so entry n ends as the product over its prime powers.
    """
    table = [0] + [1] * bound
    for p in sieve_primes(bound):
        q, e = p, 1
        while q <= bound:
            value, step = prime_power(p, e), q * p
            for n in range(q, bound + 1, q):
                if n % step:
                    table[n] *= value
            q, e = step, e + 1
    return table


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
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n and d <= TRIAL_DIVISION_LIMIT:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2 if d % 6 == 5 else 4  # step over multiples of 2 and 3
    if d * d <= n and not (n < _MR_LIMIT and is_prime(n)):
        raise ValueError(
            f"cannot factor: cofactor {n} has no prime factor up to "
            f"{TRIAL_DIVISION_LIMIT} and is not provably prime"
        )
    if n > 1:
        out.append((n, 1))
    return out
