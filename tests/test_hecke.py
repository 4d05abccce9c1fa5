import math
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvanish.ec import FIXTURES, prime_table
from qvanish.forms import delta_eta
from qvanish.hecke import (
    EXACT,
    NONZERO_DEURING,
    NONZERO_P1,
    NONZERO_P2,
    ZERO_DEURING,
    ZERO_ORDERS,
    PrimeEigenvalues,
    coeff_prime_power,
    qexp_from_primes,
)
from qvanish.arith import factorize, sieve_primes

from .oracles import multiplicative_by_trial_division, prime_power_coeffs
from .test_ec import CURVE_IDS, CURVES


def delta_primes(bound):
    d = delta_eta(bound)
    table = {p: d[p] for p in sieve_primes(bound).tolist()}
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
                             verdicts=np.array([EXACT, EXACT, NONZERO_P1, EXACT]))
        with pytest.raises(ValueError, match="one verdict per prime"):
            PrimeEigenvalues(weight=2, level=37, table={2: -2, 3: -3}, bound=10,
                             verdicts=np.array([EXACT, EXACT, NONZERO_P1]))

    def test_certified_primes_give_zeros_and_refuse_products(self):
        # 37a1 with a(p) only certified nonzero from 5 on: a(8) = 0 needs none of them
        verdicts = np.array([EXACT, EXACT] + [NONZERO_P1] * 15)
        pe = PrimeEigenvalues(weight=2, level=37, table={2: -2, 3: -3}, bound=60,
                              verdicts=verdicts)
        ns = (1, 2, 3, 4, 6, 8, 9, 24, 40, 56)
        assert [pe.coeff(n) for n in ns] == [1, -2, -3, 2, 6, 0, 6, 0, 0, 0]
        assert pe.coeff(np.array(ns)) == [1, -2, -3, 2, 6, 0, 6, 0, 0, 0]
        for n in (5, 10, 35, 59):
            with pytest.raises(ValueError, match=f"a\\({n}\\) needs .* certifies nonzero only"):
                pe.coeff(n)
            with pytest.raises(ValueError, match=f"a\\({n}\\) needs .* certifies nonzero only"):
                pe.coeff(np.array([8, n, 24]))
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


@st.composite
def verdict_tables(draw):
    """A random weight-2 or weight-12 table with its verdicts: exact a(p), zero at good and
    bad primes among them, and a(p) proven zero or nonzero without a value at good p >= 5."""
    k = draw(st.sampled_from([2, 12]))
    bound = draw(st.integers(1, 700))
    primes = sieve_primes(bound).tolist()
    level = math.prod(draw(st.lists(st.sampled_from(primes or [1]), max_size=2, unique=True)))
    table, verdicts = {}, []
    for p in primes:
        proven = [ZERO_DEURING, ZERO_ORDERS, NONZERO_DEURING, NONZERO_P1, NONZERO_P2]
        verdict = draw(st.sampled_from([EXACT] + (proven if p >= 5 and level % p else [])))
        if verdict == EXACT:
            options = [0, 1, -1, p ** (k // 2), -(p ** (k // 2))]
            table[p] = draw(st.sampled_from(options) | st.integers(-(p**k), p**k))
        verdicts.append(verdict)
    return PrimeEigenvalues(weight=k, level=level, table=table, bound=bound,
                            verdicts=np.array(verdicts, dtype=np.int8))


class TestBatchedCoeff:
    @staticmethod
    def one_by_one(pe, ns):
        """[pe.coeff(n) for n in ns], or the ValueError the first refused n raises."""
        try:
            return [pe.coeff(n) for n in ns]
        except ValueError as exc:
            return str(exc)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pe=verdict_tables(), data=st.data())
    def test_array_equals_one_call_per_index(self, pe, data):
        # indices in any order, repeated, and their prime powers, as an int64 array
        index = st.integers(1, pe.bound) | st.sampled_from(
            [p**e for p in pe.primes.tolist() for e in range(1, 10) if p**e <= pe.bound] or [1])
        ns = data.draw(st.lists(index, max_size=60))
        if data.draw(st.booleans()):  # one index out of range
            ns.insert(data.draw(st.integers(0, len(ns))), data.draw(st.sampled_from(
                [0, -3, pe.bound + 1, 2**40])))
        want = self.one_by_one(pe, ns)
        try:
            got = pe.coeff(np.array(ns, dtype=np.int64))
        except ValueError as exc:
            got = str(exc)
        assert got == want
        # a factor proven nonzero has no value: it is read as 0, and only where another is 0
        assert isinstance(want, str) or want == [math.prod(
            prime_power_coeffs(pe.table.get(p, 0), p, pe.weight, e, bad=pe.level % p == 0)[e]
            for p, e in factorize(n)) for n in ns]

    def test_exact_values_equal_the_series_in_one_call(self):
        pe = delta_primes(3000)
        assert pe.coeff(np.arange(1, 3001)) == list(delta_eta(3000).coeffs[1:])
        assert pe.coeff(np.zeros(0, dtype=np.int64)) == []


class TestQexpFromPrimes:
    def test_delta_roundtrip_500(self):
        assert qexp_from_primes(delta_primes(500), 500).coeffs == delta_eta(500).coeffs

    def test_insufficient_coverage(self):
        pe = delta_primes(20)
        with pytest.raises(ValueError, match="exceeds prime coverage"):
            qexp_from_primes(pe, 50)
