import time
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvanish.arith import (
    TRIAL_DIVISION_LIMIT,
    factorize,
    is_prime,
    multiplicative,
    sieve_primes,
    smallest_prime_factors,
)

from .oracles import multiplicative_by_trial_division, sigma_by_divisors


def expand(factors):
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def sigma_rule(m):
    return lambda p, e: sum(p ** (m * i) for i in range(e + 1))


def test_sieve_matches_trial_division_every_bound_to_2000():
    primes = [n for n in range(2, 2001) if all(n % d for d in range(2, isqrt(n) + 1))]
    for bound in range(2001):
        assert sieve_primes(bound) == [p for p in primes if p <= bound]


def test_smallest_prime_factors_match_trial_division():
    # from a sieve past the bound too, as a scan's sieve is past sqrt(bound)
    for bound in (1, 2, 3, 4, 97, 1000):
        spf = smallest_prime_factors(bound, sieve_primes(2000))
        assert spf.tolist() == [0, 1] + [
            next(d for d in range(2, n + 1) if n % d == 0) for n in range(2, bound + 1)
        ]


class TestMultiplicative:
    @pytest.mark.parametrize("m", [0, 1, 3, 5, 11])
    def test_divisor_sums_to_3000(self, m):
        table = multiplicative(3000, sigma_rule(m))
        assert table == multiplicative_by_trial_division(3000, sigma_rule(m))
        assert table == [0] + [sigma_by_divisors(n, m) for n in range(1, 3001)]

    def test_small_bounds(self):
        rule = sigma_rule(3)
        assert multiplicative(0, rule) == [0]
        assert multiplicative(1, rule) == [0, 1]
        assert multiplicative(2, rule) == [0, 1, 9]

    def test_zero_at_a_prime_power(self):
        # f(2^3) = 0 zeroes exactly the n with 2^3 || n
        table = multiplicative(100, lambda p, e: 0 if (p, e) == (2, 3) else 1)
        assert [n for n in range(1, 101) if table[n] == 0] == [8, 24, 40, 56, 72, 88]


# values of f(p^e): small ones keep the table int64, the others include values
# from 2^63 on (and below -2^63), which only Python ints hold
SMALL_VALUES = st.integers(-7, 7)
ANY_VALUES = st.one_of(
    st.integers(-7, 7),
    st.sampled_from([0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64]),
    st.integers(-(2**80), 2**80),
)


class TestMultiplicativeProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        bound=st.integers(0, 3000),
        small=st.booleans(),
        sieve_past=st.one_of(st.none(), st.integers(0, 500)),
        data=st.data(),
    )
    def test_equals_trial_division(self, bound, small, sieve_past, data):
        values = data.draw(st.lists(SMALL_VALUES if small else ANY_VALUES, min_size=1, max_size=40))

        def rule(p, e):
            return values[(5 * p + e) % len(values)]

        primes = None if sieve_past is None else sieve_primes(bound + sieve_past)
        assert multiplicative(bound, rule, primes) == multiplicative_by_trial_division(bound, rule)

    @pytest.mark.parametrize(
        "f2, f3, n6",
        [
            # 7^2 * 73 * 127 and 337 * 92737 * 649657: the product is 2^63 - 1
            (454279, 20303320287433, 2**63 - 1),
            (2**21, 2**42, 2**63),
            (-(2**21), 2**42, -(2**63)),
            # 2 * 31 bits <= 62: int64; 2 * 32 bits would overflow it
            (-(2**31 - 1), 2**31 - 1, -((2**31 - 1) ** 2)),
            (2**32 - 1, 2**32 - 1, (2**32 - 1) ** 2),
        ],
        ids=["2^63-1", "2^63", "-2^63", "31-bit", "32-bit"],
    )
    def test_products_at_the_int64_edge(self, f2, f3, n6):
        def rule(p, e):
            return {(2, 1): f2, (3, 1): f3}.get((p, e), 1)

        table = multiplicative(6, rule)
        assert table == [0, 1, f2, f3, 1, 1, n6]
        assert table == multiplicative_by_trial_division(6, rule)


class TestFactorize:
    def test_small_values(self):
        assert factorize(1) == []
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(97) == [(97, 1)]

    def test_round_trip_to_5000(self):
        for n in range(1, 5001):
            factors = factorize(n)
            assert expand(factors) == n
            assert all(is_prime(p) for p, _ in factors)
            assert [p for p, _ in factors] == sorted({p for p, _ in factors})

    def test_prime_cofactor_beyond_trial_limit_accepted(self):
        big = 1000000000000000003  # prime, far above TRIAL_DIVISION_LIMIT^2
        assert big > TRIAL_DIVISION_LIMIT**2 and is_prime(big)
        assert factorize(12 * big) == [(2, 2), (3, 1), (big, 1)]

    def test_unfactorable_cofactor_refused_quickly(self):
        # two primes above the trial limit: no proof of the factorization
        p, q = 1000003, 1000033
        assert is_prime(p) and is_prime(q)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(59 * p * q)
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(4320000000000000000021599999999999999999963)
        assert time.perf_counter() - t0 < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
