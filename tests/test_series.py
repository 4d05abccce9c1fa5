from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvanish.series import (
    LANE_PRIMES,
    QSeries,
    ResidueSeries,
    SparseSeries,
    eta_cube,
    eta_raw,
    exact_divide,
    mul,
    mul_sparse,
    mul_sparse_mod,
    mul_sparse_sparse_mod,
    power,
    reduce_mod,
)

from qvanish.cli import FULL_LEHMER_BOUND

from .oracles import euler_cube, euler_product, poly_mul

small_series = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=2, max_size=12
).map(QSeries.from_coeffs)

# coefficients far past int64, so a product that coerced to machine words
# instead of staying in Python integers would be caught
wide_series = st.lists(
    st.integers(min_value=-(2**100), max_value=2**100), min_size=2, max_size=12
).map(QSeries.from_coeffs)


def sparse_from(qs: QSeries) -> SparseSeries:
    terms = tuple((i, c) for i, c in enumerate(qs.coeffs) if c)
    return SparseSeries(terms, qs.trunc_bound)


@st.composite
def sparse_pairs(draw):
    """Two sparse series to one bound in 1..300, coefficients well inside the int64 guard."""
    bound = draw(st.integers(min_value=1, max_value=300))
    coeff = st.integers(min_value=-(2**20), max_value=2**20).filter(bool)
    terms = st.dictionaries(st.integers(min_value=0, max_value=bound), coeff, max_size=40)
    return tuple(SparseSeries(tuple(sorted(draw(terms).items())), bound) for _ in range(2))


def pad(qs: QSeries, bound: int) -> QSeries:
    return QSeries(qs.coeffs + (0,) * (bound - qs.trunc_bound))


class TestQSeries:
    def test_valuation(self):
        assert QSeries((0, 0, 3, 1)).valuation == 2
        assert QSeries((0, 0)).valuation is None
        assert QSeries((7, 0)).valuation == 0

    def test_bound_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bounds differ"):
            mul(QSeries((1, 1)), QSeries((1, 1, 1)))
        with pytest.raises(ValueError, match="bounds differ"):
            mul_sparse(QSeries((1, 1)), eta_raw(5))

    def test_mul_difference_of_squares(self):
        a = QSeries((1, 1, 0))
        b = QSeries((1, -1, 0))
        assert mul(a, b).coeffs == (1, 0, -1)

    def test_mul_geometric_inverse(self):
        geo = QSeries((1,) * 6)
        one_minus_q = QSeries((1, -1, 0, 0, 0, 0))
        assert mul(geo, one_minus_q).coeffs == (1, 0, 0, 0, 0, 0)

    def test_pow_identity_and_square(self):
        a = QSeries((1, 1, 0, 0))
        assert power(a, 1) is a
        assert power(a, 2).coeffs == (1, 2, 1, 0)

    def test_pow_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            power(QSeries((1, 1)), 0)


class TestSparse:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSeries(((2, 1), (1, 1)), 5)  # not increasing
        with pytest.raises(ValueError):
            SparseSeries(((0, 1), (9, 1)), 5)  # index beyond bound
        with pytest.raises(ValueError):
            SparseSeries(((0, 0),), 5)  # stored zero

    def test_empty_sparse_gives_zero(self):
        s = SparseSeries((), 4)
        a = QSeries((3, 1, 4, 1, 5))
        assert mul_sparse(a, s).coeffs == (0,) * 5

    def test_identity_factor(self):
        s = eta_raw(20)
        assert mul_sparse(QSeries.one(20), s).coeffs == s.densify().coeffs


class TestEtaRaw:
    def test_matches_brute_product_small(self):
        # 1 - q - q^2 + q^5 + q^7 at bound 7
        assert eta_raw(7).densify().coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_index_zero_and_twelve(self):
        dense = eta_raw(15).densify()
        assert dense[0] == 1
        assert dense[12] == -1  # m = -3 pentagonal number

    def test_matches_brute_product_every_bound_to_200(self):
        # factors (1 - q^n) with n > B cannot touch indices <= B, so the
        # truncation of the full brute product covers every smaller bound
        full = euler_product(200)
        for bound in range(1, 201):
            assert list(eta_raw(bound).densify().coeffs) == full[: bound + 1]

    def test_term_count_is_sqrt_scale(self):
        assert len(eta_raw(10000).terms) < 4 * 100 + 2


class TestEtaCube:
    @pytest.mark.parametrize("dilation", [1, 2, 3, 5, 11])
    def test_matches_cubed_euler_product_every_bound_to_300(self, dilation):
        full = euler_cube(300, dilation)
        for bound in range(1, 301):
            assert list(eta_cube(bound, dilation).densify().coeffs) == full[: bound + 1]

    def test_first_terms(self):
        # 1 - 3q + 5q^3 - 7q^6 + 9q^10
        assert eta_cube(10).terms == ((0, 1), (1, -3), (3, 5), (6, -7), (10, 9))

    def test_term_count_is_sqrt_scale(self):
        assert len(eta_cube(10000).terms) == 141  # m(m+1)/2 <= 10^4 for m <= 140

    def test_rejects_bad_bound_and_dilation(self):
        with pytest.raises(ValueError):
            eta_cube(0)
        with pytest.raises(ValueError):
            eta_cube(10, 0)


class TestOverflowGuard:
    def test_large_coefficient_refused(self):
        # one term, but (|c| + 1) * m >= 2^62
        m = 2**31 - 1
        a = ResidueSeries(m, np.ones(5, dtype=np.int64))
        with pytest.raises(OverflowError):
            mul_sparse_mod(a, SparseSeries(((0, 2**32),), 4))

    def test_coefficient_below_guard_is_exact(self):
        m = 2**31 - 1
        a = QSeries((1, m - 1, 5, 0, m - 2))
        s = SparseSeries(((0, 2**30), (2, -(2**29))), 4)
        want = reduce_mod(mul_sparse(a, s), m)
        assert mul_sparse_mod(reduce_mod(a, m), s).coeffs.tolist() == want.coeffs.tolist()

    def test_sparse_pair_refused(self):
        # sum |c_f| * sum |c_g| = 2^31 * (2^31 + 1) >= 2^62, though each sum is below 2^32
        f = SparseSeries(((0, 2**31),), 4)
        g = SparseSeries(((1, 2**31), (3, 1)), 4)
        with pytest.raises(OverflowError):
            mul_sparse_sparse_mod(f, g, LANE_PRIMES[0])

    def test_cube_factor_at_full_lehmer_bound_fits(self):
        # sum |c| over m(m+1)/2 <= B is sum_{m<=K} (2m+1) = (K+1)^2; no series built
        k = (isqrt(8 * FULL_LEHMER_BOUND + 1) - 1) // 2
        assert k * (k + 1) // 2 <= FULL_LEHMER_BOUND < (k + 1) * (k + 2) // 2
        assert ((k + 1) ** 2 + 1) * max(LANE_PRIMES) < 2**62
        # and the seed of two cube factors, (sum |c|)^2, is far inside the guard
        assert (k + 1) ** 4 < 2**62


class TestReduce:
    def test_residues(self):
        rs = reduce_mod(QSeries((1, -5)), 5)
        assert rs.modulus == 5
        assert list(rs.coeffs) == [1, 0]

    def test_rejects_even_or_composite(self):
        with pytest.raises(ValueError):
            reduce_mod(QSeries((1, 1)), 4)
        with pytest.raises(ValueError):
            reduce_mod(QSeries((1, 1)), 9)

    def test_delta_691_congruence(self):
        # coefficient 2 of the discriminant form vs sigma_11(2) mod 691
        from qvanish.forms import delta_eta

        rs = reduce_mod(delta_eta(10), 691)
        assert int(rs.coeffs[2]) == (1 + 2**11) % 691

    @given(small_series, st.sampled_from([3, 5, 7, 691] + list(LANE_PRIMES)))
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, a, m):
        rs = reduce_mod(a, m)
        assert all(int(rs.coeffs[n]) == a[n] % m for n in range(a.trunc_bound + 1))


class TestProperties:
    @given(small_series, small_series)
    @settings(max_examples=80, deadline=None)
    def test_mul_commutative(self, a, b):
        bound = max(a.trunc_bound, b.trunc_bound)
        a, b = pad(a, bound), pad(b, bound)
        assert mul(a, b).coeffs == mul(b, a).coeffs

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, a, b, c):
        bound = max(a.trunc_bound, b.trunc_bound, c.trunc_bound)
        a, b, c = pad(a, bound), pad(b, bound), pad(c, bound)
        assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs

    @given(small_series, small_series)
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_brute(self, a, b):
        bound = max(a.trunc_bound, b.trunc_bound)
        a, b = pad(a, bound), pad(b, bound)
        assert list(mul(a, b).coeffs) == poly_mul(list(a.coeffs), list(b.coeffs), bound)

    @given(wide_series, wide_series)
    @settings(max_examples=80, deadline=None)
    def test_mul_sparse_matches_dense(self, a, s):
        bound = max(a.trunc_bound, s.trunc_bound)
        a, s = pad(a, bound), pad(s, bound)
        sparse = sparse_from(s)
        got = mul_sparse(a, sparse).coeffs
        assert got == mul(a, s).coeffs
        assert all(type(c) is int for c in got)

    @given(small_series, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_pow_strategy_independent(self, a, e):
        iterated = a
        for _ in range(e - 1):
            iterated = mul(iterated, a)
        assert power(a, e).coeffs == iterated.coeffs

    @given(small_series, st.sampled_from(LANE_PRIMES), st.sampled_from([eta_raw, eta_cube]))
    @settings(max_examples=40, deadline=None)
    def test_mul_sparse_mod_matches_exact(self, a, m, expansion):
        bound = a.trunc_bound
        sparse = expansion(bound)
        exact = reduce_mod(mul_sparse(a, sparse), m)
        lane = mul_sparse_mod(reduce_mod(a, m), sparse)
        assert list(exact.coeffs) == list(lane.coeffs)

    @given(small_series, st.sampled_from(LANE_PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_mul_sparse_mod_general_coefficients(self, a, m):
        # coefficients outside {-1, 1} take the reduce-per-term path
        bound = a.trunc_bound
        terms = ((0, 7), (1, -360)) if bound >= 1 else ((0, 7),)
        sparse = SparseSeries(terms, bound)
        exact = reduce_mod(mul_sparse(a, sparse), m)
        lane = mul_sparse_mod(reduce_mod(a, m), sparse)
        assert list(exact.coeffs) == list(lane.coeffs)

    @given(sparse_pairs(), st.sampled_from(LANE_PRIMES + (65537,)))
    @settings(max_examples=60, deadline=None)
    def test_mul_sparse_sparse_mod_matches_exact(self, fg, m):
        f, g = fg
        exact = reduce_mod(mul_sparse(f.densify(), g), m)
        lane = mul_sparse_sparse_mod(f, g, m)
        assert lane.coeffs.tolist() == exact.coeffs.tolist()


class TestDeltaPaths:
    def test_pow_eta_equals_iterated_sparse(self):
        bound = 30
        pent = eta_raw(bound)
        via_pow = power(pent.densify(), 24)
        acc = QSeries.one(bound)
        for _ in range(24):
            acc = mul_sparse(acc, pent)
        assert via_pow.coeffs == acc.coeffs

    def test_eta_square_cross_paths(self):
        bound = 10
        pent = eta_raw(bound)
        once = mul_sparse(pent.densify(), pent)
        twice = mul(pent.densify(), pent.densify())
        assert once.coeffs == twice.coeffs


class TestHelpers:
    def test_exact_divide(self):
        assert exact_divide(QSeries((2, 4, -6)), 2).coeffs == (1, 2, -3)
        with pytest.raises(ValueError, match="not divisible"):
            exact_divide(QSeries((2, 3)), 2)

    def test_residue_series_validation(self):
        import numpy as np

        with pytest.raises(ValueError):
            ResidueSeries(10, np.zeros(5, dtype=np.int64))  # not an odd prime
        rs = ResidueSeries(998244353, np.zeros(5, dtype=np.int64))
        assert rs.trunc_bound == 4
