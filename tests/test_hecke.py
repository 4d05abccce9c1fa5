import random
from math import gcd

import pytest

from qvanish.ec import FIXTURES, prime_table
from qvanish.forms import delta_eta
from qvanish.hecke import (
    PrimeEigenvalues,
    coeff_prime_power,
    qexp_from_primes,
)
from qvanish.arith import sieve_primes

from .oracles import multiplicative_by_trial_division, prime_power_coeffs
from .test_ec import CURVE_IDS, CURVES


def delta_primes(bound):
    d = delta_eta(bound)
    table = {p: d[p] for p in sieve_primes(bound)}
    return PrimeEigenvalues(weight=12, level=1, table=table, bound=bound)


def oracle_coefficients(pe, bound):
    """a(0..bound) by trial division and the literal prime-power recurrence."""

    def rule(p, e):
        bad = pe.level % p == 0
        return prime_power_coeffs(pe.table[p], p, pe.weight, e, bad=bad)[e]

    return multiplicative_by_trial_division(bound, rule)


class TestMultiplicativeTable:
    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_curves_to_3000(self, curve):
        pe = prime_table(curve, 3000)
        want = oracle_coefficients(pe, 3000)
        assert [pe.coeff(n) for n in range(1, 3001)] == want[1:]
        assert list(qexp_from_primes(pe, 3000).coeffs) == want

    def test_delta_to_3000(self):
        pe = delta_primes(3000)
        want = oracle_coefficients(pe, 3000)
        assert list(qexp_from_primes(pe, 3000).coeffs) == want
        assert want == list(delta_eta(3000).coeffs)

    @pytest.mark.parametrize("bound", [1, 2])
    def test_small_bounds(self, bound):
        pe = delta_primes(2)
        want = [0, 1, -24][: bound + 1]
        assert list(qexp_from_primes(pe, bound).coeffs) == want
        pe = PrimeEigenvalues(weight=12, level=1, table=pe.table, bound=bound)
        assert pe.coeff(bound) == want[bound]


class TestPrimePower:
    def test_base_cases(self):
        assert coeff_prime_power(-2, 2, 0, 2) == 1
        assert coeff_prime_power(-2, 2, 1, 2) == -2

    def test_37a1_a8_vanishes(self):
        assert coeff_prime_power(-2, 2, 3, 2) == 0

    def test_53a1_a243_vanishes(self):
        assert coeff_prime_power(-3, 3, 5, 2) == 0
        for r in (1, 2, 3, 4):
            assert coeff_prime_power(-3, 3, r, 2) != 0

    def test_delta_a4(self):
        assert coeff_prime_power(-24, 2, 2, 12) == (-24) ** 2 - 2**11 == -1472

    def test_bad_prime_is_power(self):
        for r in range(31):
            assert coeff_prime_power(-1, 37, r, 2, p_divides_level=True) == (-1) ** r
            assert coeff_prime_power(0, 5, r, 2, p_divides_level=True) == (0 if r else 1)

    def test_matches_recurrence_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7, 11])
            k = rng.choice([2, 4, 6, 8, 10, 12])
            ap = rng.randrange(-40, 41)
            seq = prime_power_coeffs(ap, p, k, 20)
            for r in range(21):
                assert coeff_prime_power(ap, p, r, k) == seq[r]

    def test_generating_function_identity(self):
        # sum_r a(p^r) X^r  *  (1 - a_p X + p^(k-1) X^2)  =  1 + O(X^(R+1))
        rng = random.Random(23)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            k = rng.choice([2, 4, 6, 8, 10, 12, 14, 16])
            ap = rng.randrange(-60, 61)
            R = 30
            a = [coeff_prime_power(ap, p, r, k) for r in range(R + 1)]
            quad = [1, -ap, p ** (k - 1)]
            prod = [0] * (R + 1)
            for i, qi in enumerate(quad):
                for j in range(R + 1 - i):
                    prod[i + j] += qi * a[j]
            assert prod == [1] + [0] * R

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            coeff_prime_power(1, 2, 1, 3)


class TestOracle:
    def test_37a1_values(self):
        pe = prime_table(FIXTURES["37a1"], 10)
        assert pe.coeff(1) == 1
        assert pe.coeff(6) == 6
        assert pe.coeff(9) == 6

    def test_multiplicativity(self):
        pe = delta_primes(600)
        rng = random.Random(5)
        for _ in range(60):
            m, n = rng.randrange(1, 40), rng.randrange(1, 15)
            if gcd(m, n) == 1:
                assert pe.coeff(m * n) == pe.coeff(m) * pe.coeff(n)

    def test_bound_enforced(self):
        pe = prime_table(FIXTURES["37a1"], 10)
        with pytest.raises(ValueError, match="exceeds the prime-table bound"):
            pe.coeff(11)
        with pytest.raises(ValueError, match="n must be >= 1"):
            pe.coeff(0)

    def test_table_completeness_enforced(self):
        with pytest.raises(ValueError, match="missing primes"):
            PrimeEigenvalues(weight=2, level=37, table={2: -2}, bound=10)
        with pytest.raises(ValueError, match="missing primes <= bound: \\[7\\]"):
            PrimeEigenvalues(weight=2, level=37, table={2: -2, 3: -3}, bound=10,
                             nonzero=frozenset({5}))

    def test_certified_primes_give_zeros_and_refuse_products(self):
        # 37a1 with a(5) and a(7) only certified nonzero: a(8) = 0 needs neither
        pe = PrimeEigenvalues(weight=2, level=37, table={2: -2, 3: -3}, bound=60,
                              nonzero=frozenset({5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                                 47, 53, 59}))
        assert [pe.coeff(n) for n in (1, 2, 3, 4, 6, 8, 9, 24, 40, 56)] == [
            1, -2, -3, 2, 6, 0, 6, 0, 0, 0
        ]
        for n in (5, 10, 35, 59):
            with pytest.raises(ValueError, match="certifies nonzero only"):
                pe.coeff(n)
        with pytest.raises(ValueError, match="without their values"):
            qexp_from_primes(pe, 10)

    def test_factorization_equals_the_series(self):
        # coeff no longer reads the series: every index by its factorization
        for curve in FIXTURES.values():
            pe = prime_table(curve, 5000)
            assert [pe.coeff(n) for n in range(1, 5001)] == list(pe.series.coeffs[1:])
            assert "series" in vars(pe)
        pe = prime_table(FIXTURES["37a1"], 5000)
        pe.coeff(4999)
        assert "series" not in vars(pe)


class TestQexpFromPrimes:
    def test_delta_roundtrip_500(self):
        assert qexp_from_primes(delta_primes(500), 500).coeffs == delta_eta(500).coeffs

    def test_insufficient_coverage(self):
        pe = delta_primes(20)
        with pytest.raises(ValueError, match="exceeds prime coverage"):
            qexp_from_primes(pe, 50)
