import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvanish import forms, hecke, vanish
from qvanish.arith import multiplicative, sieve_primes
from qvanish.ec import FIXTURES, WeierstrassCurve, prime_table, scan_table
from qvanish.forms import delta_coefficient, delta_eta, delta_eta_mod
from qvanish.hecke import PrimeEigenvalues, coeff_prime_power, qexp_from_primes
from qvanish.series import LANE_PRIMES, QSeries, reduce_mod
from qvanish.vanish import (
    AP_ZERO,
    BAD_PRIME,
    GuaranteeViolationError,
    ScanSource,
    VanishClass,
    classify,
    compute_mf,
    first_vanishing,
    NEVER_ZERO,
    PERIODIC,
    prime_sieve,
    zeros_up_to,
)

from .oracles import prime_power_zeros


def curve_source(curve, bound):
    pe = prime_table(curve, bound)
    return ScanSource(pe.bound, pe.coeff)


class TestClassify:
    def test_level37_prime2(self):
        vc = classify(-2, 2, 2)
        assert vc == VanishClass(PERIODIC, order=4, witness=3)

    def test_level53_prime3(self):
        vc = classify(-3, 3, 2)
        assert vc == VanishClass(PERIODIC, order=6, witness=5)

    def test_delta_prime2_generic_branch(self):
        assert classify(-24, 2, 12).kind == NEVER_ZERO

    def test_ap_zero(self):
        vc = classify(0, 5, 2)
        assert vc.kind == AP_ZERO and vc.witness == 1

    def test_bad_prime(self):
        assert classify(-1, 37, 2, p_divides_level=True) == VanishClass(BAD_PRIME)
        assert classify(0, 5, 2, p_divides_level=True).witness == 1

    def test_generic_branch_beyond_boundaries(self):
        # a_p^2 = 4 p^(k-1) (equal Satake parameters) has no integer instance
        # for even k; values past every boundary are generic never-zero.
        assert classify(5, 2, 2).kind == NEVER_ZERO
        assert classify(100, 7, 4).kind == NEVER_ZERO

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_size_check_edge(self, p, sign):
        # at k = 10^4, +-p^(k/2) sits at the size check and stays periodic;
        # one step off it is never-zero
        k = 10**4
        half = p ** (k // 2)
        vc = classify(sign * half, p, k)
        assert (vc.kind, vc.order) == (PERIODIC, {2: 4, 3: 6}[p])
        assert classify(sign * (half + 1), p, k).kind == NEVER_ZERO

    def test_any_weight_answered(self):
        # p^(k-1) would have about 1.6e12 bits; the size check answers first
        assert classify(1, 3, 10**12) == VanishClass(NEVER_ZERO)

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError, match="even weight"):
            classify(1, 2, 3)

    def test_sign_symmetry_examples(self):
        for ap, p, k in [(-2, 2, 2), (-3, 3, 2), (-24, 2, 12), (7, 5, 4)]:
            assert classify(ap, p, k) == classify(-ap, p, k)

    @given(
        st.integers(min_value=-300, max_value=300),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_recurrence_oracle(self, ap, p, k):
        vc = classify(ap, p, k)
        assert zeros_up_to(vc, 60) == prime_power_zeros(ap, p, k, 60)

    @given(
        st.integers(min_value=-300, max_value=300),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign_symmetry(self, ap, p, k):
        assert classify(ap, p, k) == classify(-ap, p, k)

    def test_periodic_only_at_2_4_and_3_6(self):
        # With integer a_p and even weight, periodic zero sets occur only as
        # (p, order) = (2, 4) or (3, 6): the boundary a_p^2 = t p^(k-1) is a
        # perfect square only for t = 2, p = 2 and t = 3, p = 3.  Exhaustive
        # for p in {2, 3}; for larger p every boundary neighborhood is probed
        # (full Hasse ranges there run to ~1e8 values).
        for p in (2, 3):
            for k in (2, 4, 6, 8, 10, 12, 14, 16):
                hasse = 2 * math.isqrt(p ** (k - 1)) + 2
                for ap in range(-hasse, hasse + 1):
                    vc = classify(ap, p, k)
                    if vc.kind == PERIODIC:
                        assert (p, vc.order) in {(2, 4), (3, 6)}
        for p in (5, 7, 11, 13):
            for k in (2, 4, 6, 8, 10, 12, 14, 16):
                pk = p ** (k - 1)
                probes = {0, 1, -1}
                for t in (1, 2, 3, 4):
                    root = math.isqrt(t * pk)
                    probes.update(
                        root + d for d in (-2, -1, 0, 1, 2)
                    )
                    probes.update(-(root + d) for d in (-2, -1, 0, 1, 2))
                for ap in probes:
                    vc = classify(ap, p, k)
                    if vc.kind == PERIODIC:
                        assert (p, vc.order) in {(2, 4), (3, 6)}, (ap, p, k)


class TestZerosUpTo:
    def test_periodic4(self):
        vc = classify(-2, 2, 2)
        assert zeros_up_to(vc, 12) == {3, 7, 11}

    def test_ap_zero(self):
        assert zeros_up_to(classify(0, 7, 4), 6) == {1, 3, 5}

    def test_never(self):
        assert zeros_up_to(classify(-24, 2, 12), 1000) == set()

    def test_bad_prime(self):
        assert zeros_up_to(classify(0, 5, 2, p_divides_level=True), 4) == {1, 2, 3, 4}
        assert zeros_up_to(classify(1, 5, 2, p_divides_level=True), 50) == set()


class TestComputeMf:
    def test_37a1(self):
        mf = compute_mf(37, -2, -3, 2)
        assert mf.value == 6 and mf.factors_kept == (2, 3)

    def test_53a1(self):
        mf = compute_mf(53, -1, -3, 2)
        assert mf.value == 3 and mf.factors_kept == (3,)

    def test_delta(self):
        mf = compute_mf(1, -24, 252, 12)
        assert mf.value == 1 and mf.factors_kept == ()

    def test_level_divisibility_drops_factor(self):
        # 2 | N forces 2 out of M_f regardless of a(2)
        assert compute_mf(2, 4, 5, 4).value in (1, 3)
        assert compute_mf(6, 4, 9, 4).value == 1

    def test_divides_six_and_coprime_to_level(self):
        for level in (1, 2, 3, 5, 6, 30, 37):
            for a2 in (-4, -1, 0, 4):
                for a3 in (-9, 0, 3, 9):
                    mf = compute_mf(level, a2, a3, 4)
                    assert 6 % mf.value == 0
                    assert math.gcd(mf.value, level) == 1

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_consistency_with_zero_sets(self, data):
        # p is kept in M_f exactly when the classifier reports periodic zeros
        level = data.draw(st.sampled_from([1, 2, 3, 6, 11, 37, 53, 12, 35]), "level")
        k = data.draw(st.integers(min_value=1, max_value=32), "k/2") * 2

        def a(p):
            half = p ** (k // 2)
            near = st.sampled_from([0, half, -half, half + 1, half - 1, -half + 1, -half - 1])
            return data.draw(st.one_of(near, st.integers()), f"a{p}")

        a2, a3 = a(2), a(3)
        mf = compute_mf(level, a2, a3, k)
        for p, ap in ((2, a2), (3, a3)):
            periodic = classify(ap, p, k, level % p == 0).kind == PERIODIC
            assert (p in mf.factors_kept) == periodic
            assert mf.justification[p]["ap_is_critical"] == periodic
            # the rule M_f used to state on its own: p does not divide N, a_p = +-p^(k/2)
            assert periodic == (level % p != 0 and ap * ap == p**k)
        assert mf.value == math.prod(mf.factors_kept)
        assert 6 % mf.value == 0


class TestFirstVanishing:
    def test_37a1_oracle_scan(self):
        report = first_vanishing(curve_source(FIXTURES["37a1"], 100), level=37)
        assert report.first_zero == 8
        assert report.first_zero_is_prime is False
        assert report.first_zero_divides_level is False
        # a curve's source has no lanes: 1..7 are certified by their exact values
        zero = len(report.zeros)
        assert report.certification == {"exact": 100 - zero, "residue": 0, "zero": zero}

    def test_37a1_coprime_six(self):
        report = first_vanishing(curve_source(FIXTURES["37a1"], 100), coprime_to=6)
        # a(17) = 0 with a_p = 0 at the good prime 17: the hit is prime
        assert report.first_zero_coprime == 17
        assert report.first_zero_coprime_is_prime is True

    def test_53a1_zeros_include_243(self):
        report = first_vanishing(curve_source(FIXTURES["53a1"], 300))
        assert report.first_zero == 5
        assert 243 in report.zeros

    def test_series_and_oracle_paths_agree(self):
        pe = prime_table(FIXTURES["53a1"], 300)
        series = qexp_from_primes(pe, 300)
        via_series = first_vanishing(ScanSource.from_series(series))
        via_oracle = first_vanishing(curve_source(FIXTURES["53a1"], 300))
        assert via_series.zeros == via_oracle.zeros
        assert via_series.first_zero == via_oracle.first_zero
        assert via_series.lane_moduli == LANE_PRIMES

    def test_residue_lane_source(self):
        bound = 2000
        src = ScanSource(bound, delta_coefficient, LANE_PRIMES, partial(delta_eta_mod, bound))
        report = first_vanishing(src)
        assert report.first_zero is None
        assert report.certification == {"exact": 0, "residue": bound, "zero": 0}

    def test_lane_and_series_scans_agree(self):
        bound = 1500
        via_lanes = first_vanishing(
            ScanSource(bound, delta_coefficient, LANE_PRIMES, partial(delta_eta_mod, bound))
        )
        via_series = first_vanishing(ScanSource.from_series(delta_eta(bound)))
        assert via_lanes.zeros == via_series.zeros
        assert via_lanes.certification == via_series.certification

    def test_residue_fallback_verifies_exactly(self):
        # A single lane modulo 7 has zero residues (tau(5) = 4830 = 7 * 690);
        # the exact fallback must rescue those indices, not report zeros.
        bound = 50
        src = ScanSource(bound, delta_coefficient, (7,), partial(delta_eta_mod, bound))
        report = first_vanishing(src)
        assert report.first_zero is None
        assert report.certification["exact"] > 0
        assert report.certification["zero"] == 0
        assert sum(report.certification.values()) == bound

    def test_every_index_below_zero_certified(self):
        source = curve_source(FIXTURES["37a1"], 50)
        report = first_vanishing(source)
        zeros = [n for n in range(1, 51) if source.exact(n) == 0]
        # the zeros are exactly the exact zeros, so every index below the
        # first is certified nonzero, and every index is counted once
        assert report.zeros == zeros
        assert report.first_zero == zeros[0]
        assert report.certification == {"exact": 50 - len(zeros), "residue": 0, "zero": len(zeros)}

    def test_guarantee_violation_raises(self):
        # coprime_to = 5 is not a multiple of M_f = 6, so the composite hit 8
        # is mathematically fine; but coprime_to is taken as M_f, so it raises.
        with pytest.raises(GuaranteeViolationError):
            first_vanishing(curve_source(FIXTURES["37a1"], 100), coprime_to=5)

    def test_insufficient_coverage(self):
        # a source whose lanes or exact values stop below its bound is refused
        series = delta_eta(10)
        with pytest.raises(ValueError, match="do not cover 20"):
            first_vanishing(ScanSource(20, series.__getitem__, (7,), partial(reduce_mod, series)))
        pe = prime_table(FIXTURES["37a1"], 10)
        with pytest.raises(ValueError, match="exceeds the prime-table bound 10"):
            first_vanishing(ScanSource(20, pe.coeff))

    def test_short_lane_refused(self):
        with pytest.raises(ValueError, match="do not cover 20"):
            first_vanishing(ScanSource(20, delta_coefficient, (7,), partial(delta_eta_mod, 10)))

    def test_tau_nonvanishing_small(self):
        report = first_vanishing(ScanSource.from_series(delta_eta(3000)))
        assert report.first_zero is None
        assert report.certification["zero"] == 0
        assert sum(report.certification.values()) == 3000

    def test_bad_prime_zeros_reported_and_flagged(self):
        # y^2 = x^3 + 25x has additive reduction at 2 and 5 (a_p = 0 there),
        # so zeros at bad primes exist; they are reported, flagged as
        # dividing the level, and still prime (consistent with the coprime
        # guarantee, since M_f is coprime to the level).
        from qvanish.ec import WeierstrassCurve

        curve = WeierstrassCurve(0, 0, 0, 25, 0, label="additive-5")
        report = first_vanishing(curve_source(curve, 30), level=10)
        assert report.first_zero == 2
        assert report.first_zero_divides_level is True
        assert report.first_zero_is_prime is True
        assert 5 in report.zeros and 10 in report.zeros
        coprime = first_vanishing(curve_source(curve, 30), coprime_to=1)
        assert coprime.first_zero_coprime == 2

    def test_scan_bound_one(self):
        report = first_vanishing(ScanSource.from_series(delta_eta(1)))
        assert report.first_zero is None
        assert report.certification == {"exact": 0, "residue": 1, "zero": 0}


class TestLaneCascade:
    """Lanes are built in order, each only while some index is still pending."""

    @staticmethod
    def counted_builder(bound, built):
        def lane(m):
            built.append(m)
            return delta_eta_mod(bound, m)

        return lane

    @pytest.mark.parametrize(
        "moduli",
        [(7, 11, 23), (5, 7, 11), (7, 998244353, 11), (998244353, 7, 11)],
    )
    def test_matches_eager_lanes(self, moduli):
        bound = 400
        tau = delta_eta(bound)
        lanes = [delta_eta_mod(bound, m) for m in moduli]
        # the eager reference: every lane built, a residue in any one certifies
        cert, zeros, reached = {"exact": 0, "residue": 0, "zero": 0}, [], 1
        for n in range(1, bound + 1):
            if any(int(lane.coeffs[n]) for lane in lanes):
                cert["residue"] += 1
            elif tau[n] == 0:
                cert["zero"] += 1
                zeros.append(n)
            else:
                cert["exact"] += 1
        for i in range(1, len(moduli)):
            if any(not any(int(lane.coeffs[n]) for lane in lanes[:i]) for n in range(1, bound + 1)):
                reached += 1

        built = []
        report = first_vanishing(
            ScanSource(bound, tau.__getitem__, moduli, self.counted_builder(bound, built))
        )
        assert report.certification == cert
        assert sum(report.certification.values()) == bound
        assert report.zeros == zeros
        assert report.lane_moduli == moduli
        assert built == list(moduli[:reached])

    def test_every_stage_taken(self):
        # mod 7, 11, 23 some indices are certified by each lane and some by none
        bound = 400
        tau = delta_eta(bound)
        first_nonzero = [
            next((i for i, m in enumerate((7, 11, 23)) if tau[n] % m), None)
            for n in range(1, bound + 1)
        ]
        assert set(first_nonzero) == {0, 1, 2, None}
        report = first_vanishing(
            ScanSource(bound, tau.__getitem__, (7, 11, 23), partial(delta_eta_mod, bound))
        )
        assert report.certification["exact"] == first_nonzero.count(None)

    def test_from_series_reduces_on_demand(self, monkeypatch):
        import qvanish.vanish as vanish_module

        reduced = []
        real = vanish_module.reduce_mod
        monkeypatch.setattr(
            vanish_module, "reduce_mod", lambda qs, m: reduced.append(m) or real(qs, m)
        )
        report = first_vanishing(ScanSource.from_series(delta_eta(500)))
        assert reduced == [LANE_PRIMES[0]]
        assert report.lane_moduli == LANE_PRIMES

    def test_short_later_lane_refused_only_when_built(self):
        bound = 50

        def lane(m):
            return delta_eta_mod(10 if m == 11 else bound, m)

        # every tau(n) <= 50 has a nonzero residue mod 998244353 or mod 7
        first_vanishing(ScanSource(bound, delta_coefficient, (7, 998244353, 11), lane))
        with pytest.raises(ValueError, match="do not cover 50"):
            first_vanishing(ScanSource(bound, delta_coefficient, (7, 11), lane))


def synthetic_source(values, moduli, built, reach=None):
    """a(1..len(values)) = values, lanes by reduction, each build recorded in built."""
    qs = QSeries((0, *values))

    def lane(m):
        built.append(m)
        return reduce_mod(qs, m)

    extra = {} if reach is None else {"reach": reach}
    return ScanSource(len(values), qs.__getitem__, moduli, lane, **extra)


def honest_reach(values, moduli):
    """reach(i): the largest n with 2 |a(m)| < prod(moduli[:i]) for every m <= n."""

    def reach(count):
        big_m = math.prod(moduli[:count])
        past = (n for n, v in enumerate(values, start=1) if 2 * abs(v) >= big_m)
        return next(past, len(values) + 1) - 1

    return reach


class TestReach:
    """A scan stops building lanes once those built fix every open index."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(-40, 40), st.integers(-600, 600)),
            min_size=1,
            max_size=60,
        ),
        st.permutations((7, 11, 13)),
    )
    def test_honest_reach_keeps_the_report(self, values, moduli):
        moduli = tuple(moduli)
        built, eager = [], []
        with_reach = first_vanishing(
            synthetic_source(values, moduli, built, honest_reach(values, moduli))
        )
        without = first_vanishing(synthetic_source(values, moduli, eager))
        assert with_reach == without
        assert built == eager[: len(built)]

    def test_uncovered_residue_zero_builds_the_next_lane(self):
        # a(3) = 77 is 0 mod 7 and mod 11, and 2 |a(3)| >= 77, so two lanes
        # reach only n = 2: lane 2 is built and certifies a(3) by its residue
        values, moduli = [1, 0, 77], (7, 11, 13)
        reach = honest_reach(values, moduli)
        assert [reach(i) for i in range(4)] == [0, 2, 2, 3]
        built = []
        report = first_vanishing(synthetic_source(values, moduli, built, reach))
        assert built == [7, 11, 13]
        assert report.zeros == [2]
        assert report.certification == {"exact": 0, "residue": 2, "zero": 1}

    def test_zero_within_reach_stops_at_once(self):
        # lane 0 leaves only n = 2 open, and it fixes a(n) to n = 2
        values, moduli = [1, 0, 5], (7, 11, 13)
        reach = honest_reach(values, moduli)
        assert reach(1) == 2
        built = []
        report = first_vanishing(synthetic_source(values, moduli, built, reach))
        assert built == [7]
        assert report.zeros == [2]
        assert report.certification == {"exact": 0, "residue": 2, "zero": 1}

    def test_index_past_the_last_lift_modulus_continues(self):
        # at weight 200 the lift of all five moduli reaches only n = 2, so
        # _lift_moduli refuses n = 3; as a reach it just never covers n = 3
        weight = 200
        assert forms.lift_reach(weight, len(forms._LIFT_MODULI)) == 2
        with pytest.raises(ValueError, match="is past it"):
            forms._lift_moduli(weight, 3)
        built = []
        values = [1, 0, 7 * 11 * 13]
        reach = partial(forms.lift_reach, weight)
        report = first_vanishing(synthetic_source(values, (7, 11, 13), built, reach))
        assert built == [7, 11, 13]
        assert report.zeros == [2]
        assert report.certification == {"exact": 1, "residue": 1, "zero": 1}


# the five test curves: 37a1, 53a1, 11a1, and the CM curves 27a1 and y^2 = x^3 + 25x
CURVES = [
    FIXTURES["37a1"],
    FIXTURES["53a1"],
    WeierstrassCurve(0, -1, 1, -10, -20, label="11a1"),
    WeierstrassCurve(0, 0, 1, 0, -7, label="27a1"),
    WeierstrassCurve(0, 0, 0, 25, 0, label="25x"),
]


@st.composite
def prime_tables(draw):
    """A random table of a(p) for p <= bound: a_p = 0 at good and at bad primes, and the
    periodic a_2 = +-2^(k/2), a_3 = +-3^(k/2), beside small and large values."""
    k = draw(st.sampled_from([2, 4, 12]))
    bound = draw(st.integers(1, 400))
    primes = sieve_primes(bound).tolist()
    level = math.prod(draw(st.lists(st.sampled_from(primes or [1]), max_size=3, unique=True)))
    table = {}
    for p in primes:
        options = [0, 1, -1, p ** (k // 2), -(p ** (k // 2)), 2 * p ** (k // 2) + 1]
        table[p] = draw(st.sampled_from(options) | st.integers(-(p**k), p**k))
    return PrimeEigenvalues(weight=k, level=level, table=table, bound=bound)


class TestPrimeSieve:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pe=prime_tables())
    def test_sieve_equals_the_multiplicative_series(self, pe):
        k, level = pe.weight, pe.level
        a = multiplicative(
            pe.bound,
            lambda p, e: coeff_prime_power(pe.table[p], p, e, k, not level % p),
            pe.primes,
        )
        coprime_to = None
        if pe.bound >= 3:
            coprime_to = compute_mf(level, pe.table[2], pe.table[3], k).value
        want = first_vanishing(ScanSource(pe.bound, a.__getitem__), coprime_to=coprime_to,
                               level=level)
        assert prime_sieve(pe, coprime_to=coprime_to) == want
        assert want.zeros == [n for n in range(1, pe.bound + 1) if a[n] == 0]

    @pytest.mark.parametrize("bound", range(1, 61))
    def test_curve_scans_equal_the_exact_series(self, bound):
        # every small bound, where a round of the ladder may end with no lane open
        for curve in CURVES:
            series = prime_table(curve, bound).series
            want = first_vanishing(ScanSource(bound, series.__getitem__), coprime_to=6,
                                   level=curve.level)
            assert prime_sieve(scan_table(curve, bound), coprime_to=6) == want

    def test_printed_zeros_are_read_again(self, monkeypatch):
        pe = scan_table(FIXTURES["37a1"], 3000)
        monkeypatch.setattr(vanish, "ZEROS_CAP", 101)
        last, past = prime_sieve(pe).zeros[-2:]
        monkeypatch.setattr(vanish, "ZEROS_CAP", 100)
        read = []
        coeff = hecke.PrimeEigenvalues.coeff
        monkeypatch.setattr(hecke.PrimeEigenvalues, "coeff",
                            lambda self, n: read.append((n.dtype, n.tolist())) or coeff(self, n))
        report = prime_sieve(pe)
        # one batched call, on the int64 array of exactly the printed zeros
        assert read == [(np.dtype(np.int64), report.zeros)]
        assert report.zeros[-1] == last and report.zeros_omitted > 0

        def wrong_at(m):
            return lambda self, n: [v or int(x == m) for x, v in zip(n.tolist(), coeff(self, n))]

        # a wrong value at the last printed zero raises; the first zero past the cap is not read
        monkeypatch.setattr(hecke.PrimeEigenvalues, "coeff", wrong_at(last))
        with pytest.raises(GuaranteeViolationError, match=f"a\\({last}\\) zero; its factors give 1"):
            prime_sieve(pe)
        monkeypatch.setattr(hecke.PrimeEigenvalues, "coeff", wrong_at(past))
        assert prime_sieve(pe) == report

    @pytest.mark.parametrize("cap", [1, 2])
    def test_report_past_the_cap(self, monkeypatch, cap):
        # 37a1's zeros to 100 begin 8, 17; at cap 1 the first coprime zero lies past the cap
        curve = FIXTURES["37a1"]
        scans = (lambda: first_vanishing(curve_source(curve, 100), coprime_to=6, level=37),
                 lambda: prime_sieve(scan_table(curve, 100), coprime_to=6))
        full = [scan() for scan in scans]
        monkeypatch.setattr(vanish, "ZEROS_CAP", cap)
        for want, scan in zip(full, scans):
            zero = want.certification["zero"]
            assert want.zeros_omitted == 0 and len(want.zeros) == zero > cap
            got = scan()
            assert (got.first_zero, got.first_zero_coprime) == (8, 17)
            assert got.zeros == [8, 17][:cap] and got.zeros_omitted == zero - cap
            capped = {"zeros": want.zeros[:cap], "zeros_omitted": zero - cap}
            assert vars(got) == {**vars(want), **capped}

    def test_primes_above_the_root_take_no_classify(self, monkeypatch):
        # a_p = 0 at the bad prime 3 <= sqrt(200), where every e vanishes, and
        # above it at the bad prime 17 and the good prime 19
        bound = 200
        table = {p: 1 for p in sieve_primes(bound).tolist()} | {3: 0, 17: 0, 19: 0}
        pe = PrimeEigenvalues(weight=2, level=3 * 17, table=table, bound=bound)
        want = first_vanishing(ScanSource(bound, pe.series.__getitem__), level=pe.level)
        monkeypatch.setattr(vanish, "ZEROS_CAP", bound)
        seen = []
        real = vanish.classify
        monkeypatch.setattr(vanish, "classify",
                            lambda a_p, p, *args: seen.append(p) or real(a_p, p, *args))
        report = prime_sieve(pe)
        assert report == want
        assert report.zeros == [n for n in range(1, bound + 1) if pe.series[n] == 0]
        assert {3, 9, 81, 17, 34, 19, 38} <= set(report.zeros)
        assert seen == [p for p in pe.primes if p <= math.isqrt(bound)]

    def test_composite_coprime_zero_raises(self):
        # 37a1 has a(8) = 0; coprime_to = 5 is not a multiple of M_f = 6
        with pytest.raises(GuaranteeViolationError, match="composite n = 8"):
            prime_sieve(scan_table(FIXTURES["37a1"], 100), coprime_to=5)

