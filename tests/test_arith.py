import time

import pytest

from qvanish.arith import TRIAL_DIVISION_LIMIT, factorize, is_prime, radical


def expand(factors):
    out = 1
    for p, e in factors:
        out *= p**e
    return out


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
            radical(4320000000000000000021599999999999999999963)
        assert time.perf_counter() - t0 < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
