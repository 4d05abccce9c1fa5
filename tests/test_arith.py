import time

import pytest

from qvanish.arith import TRIAL_DIVISION_LIMIT, factorize, is_prime, multiplicative

from .oracles import multiplicative_by_trial_division, sigma_by_divisors


def expand(factors):
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def sigma_rule(m):
    return lambda p, e: sum(p ** (m * i) for i in range(e + 1))


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
