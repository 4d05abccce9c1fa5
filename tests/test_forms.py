import random
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvanish import forms
from qvanish.forms import (
    ETA_QUOTIENT_LEVELS,
    FormSpec,
    bernoulli,
    delta_coefficient,
    delta_eisenstein,
    delta_eta,
    delta_eta_mod,
    eisenstein_coeffs,
    eta_product,
    eta_product_spec,
    eta_quotient,
    eta_quotient_coefficient,
    eta_quotient_mod,
    export_qexp,
    ingest_qexp,
    parse_qexp,
    sigma,
)
from qvanish.series import LANE_PRIMES, QSeries, eta_raw, reduce_mod

from .oracles import (
    eta_product_by_euler,
    parse_qexp_by_lines,
    sigma_by_divisors,
    tau_by_niebur,
    tau_by_product,
)

TAU_10 = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


class TestSigma:
    def test_examples(self):
        assert sigma(1, 11) == 1
        assert sigma(6, 1) == 12
        assert sigma(2, 11) == 2049

    def test_number_of_divisors(self):
        assert sigma(12, 0) == 6

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 36, 97, 360, 1001])
    @pytest.mark.parametrize("m", [0, 1, 3, 11])
    def test_matches_divisor_sum(self, n, m):
        assert sigma(n, m) == sigma_by_divisors(n, m)

    def test_multiplicative(self):
        rng = random.Random(7)
        from math import gcd

        for _ in range(40):
            m, n = rng.randrange(1, 400), rng.randrange(1, 400)
            if gcd(m, n) == 1:
                assert sigma(m * n, 3) == sigma(m, 3) * sigma(n, 3)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            bernoulli(3)
        with pytest.raises(ValueError):
            bernoulli(1)

    def test_concurrent_initialization(self):
        import threading

        results = []

        def worker():
            results.append(bernoulli(40))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert results[0] == Fraction(
            -261082718496449122051, 13530
        )  # B_40, standard tables


class TestEisenstein:
    def test_e4_e6_first_coefficients(self):
        assert eisenstein_coeffs(2, 3).coeffs == (1, 240, 2160, 6720)
        e6 = eisenstein_coeffs(3, 2)
        assert e6[0] == 1 and e6[1] == -504

    def test_weight2_excluded(self):
        with pytest.raises(ValueError):
            eisenstein_coeffs(1, 10)

    def test_nonintegral_weight_raises(self):
        # weight 12: the normalization is 65520/691, not an integer
        with pytest.raises(ValueError, match="not an integer"):
            eisenstein_coeffs(6, 5)

    @pytest.mark.parametrize(
        "half_weight, normalization", [(2, 240), (3, -504), (4, 480), (5, -264), (7, -24)]
    )
    def test_matches_divisor_sums_to_500(self, half_weight, normalization):
        m = 2 * half_weight - 1
        want = (1,) + tuple(normalization * sigma_by_divisors(n, m) for n in range(1, 501))
        assert eisenstein_coeffs(half_weight, 500).coeffs == want

    def test_one_dimensional_space_identities(self):
        # level-1 modular forms of weight 8, 10 and 14 are one-dimensional,
        # so products of Eisenstein series must reproduce Eisenstein series;
        # this exercises sigma sieve, normalization and multiplication at once
        bound = 150
        e4 = eisenstein_coeffs(2, bound)
        e6 = eisenstein_coeffs(3, bound)
        assert (e4**2).coeffs == eisenstein_coeffs(4, bound).coeffs
        assert (e4 * e6).coeffs == eisenstein_coeffs(5, bound).coeffs
        assert (e6 * eisenstein_coeffs(4, bound)).coeffs == eisenstein_coeffs(7, bound).coeffs


class TestDeltaRoutes:
    def test_tau_small(self):
        assert list(delta_eta(10).coeffs[1:]) == TAU_10

    def test_tau_matches_naive_product(self):
        tau = tau_by_product(1000)
        assert list(delta_eta(1000).coeffs) == tau
        assert list(eta_quotient(1, 1000).coeffs) == tau
        for m in LANE_PRIMES:
            assert eta_product(1, 1000, m).coeffs.tolist() == [t % m for t in tau]

    def test_multiplicativity_spot(self):
        d = delta_eta(20)
        assert d[6] == d[2] * d[3]
        assert d[10] == d[2] * d[5]
        assert d[15] == d[3] * d[5]

    def test_routes_agree(self):
        bound = 300
        assert delta_eta(bound).coeffs == delta_eisenstein(bound).coeffs

    def test_e4_cubed_minus_e6_squared_divisible(self):
        bound = 200
        diff = eisenstein_coeffs(2, bound) ** 3 - eisenstein_coeffs(3, bound) ** 2
        assert all(c % 1728 == 0 for c in diff.coeffs)

    def test_residue_twin_matches(self):
        bound = 120
        exact = delta_eta(bound)
        for m in LANE_PRIMES:
            lane = delta_eta_mod(bound, m)
            assert list(lane.coeffs) == list(reduce_mod(exact, m).coeffs)

    def test_single_coefficient_without_lanes(self):
        exact = delta_eta(500)
        for n in [1, 2, 10, 100, 101, 256, 499, 500]:
            assert delta_coefficient(n) == exact[n]

    @pytest.fixture(scope="class")
    def lanes_to_30000(self):
        return cache(partial(delta_eta_mod, 30000))

    @pytest.mark.parametrize("n", [28521, 28522, 29989])
    def test_niebur_agrees_across_the_lane_step(self, lanes_to_30000, n):
        # three lanes lift tau to 28521 and four are needed from 28522 on,
        # both for the series and for a single value past the scan's lanes
        want = tau_by_niebur(n)
        assert delta_coefficient(n) == want
        assert delta_coefficient(n, lanes_to_30000) == want
        assert delta_eta(n)[n] == want

    def test_lift_past_the_scan_lanes_builds_one_more_lane(self, monkeypatch):
        # a scan's lane source to 30000 serves tau past 28521 by building the
        # fourth modulus once, to its own bound, and no lane to n
        built = []
        real = forms.eta_product

        def eta_product(level, bound, modulus):
            built.append((bound, modulus))
            return real(level, bound, modulus)

        monkeypatch.setattr(forms, "eta_product", eta_product)
        lane_of = cache(partial(delta_eta_mod, 30000))
        for n in (28522, 29989):
            assert eta_quotient_coefficient(1, n, lane_of) == tau_by_niebur(n)
        # each of the four lift moduli, 469762049 among them, once and to 30000
        assert sorted(built) == sorted((30000, m) for m in forms._LIFT_MODULI[:4])


ETA_FIRST_12 = {
    2: [1, -8, 12, 64, -210, -96, 1016, -512, -2043, 1680, 1092, 768],
    3: [1, -6, 9, 4, 6, -54, -40, 168, 81, -36, -564, 36],
    5: [1, -4, 2, 8, -5, -8, 6, 0, -23, 20, 32, 16],
    11: [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2],
}


class TestEtaQuotients:
    @pytest.mark.parametrize("level", [2, 3, 5, 11])
    def test_first_coefficients(self, level):
        spec, qs = eta_product_spec(level), eta_quotient(level, 12)
        assert spec.weight == 24 // (level + 1)
        assert spec.level == level
        assert qs[0] == 0 and qs[1] == 1
        assert list(qs.coeffs[1:13]) == ETA_FIRST_12[level]

    def test_level_11_coefficient_two(self):
        qs = eta_quotient(11, 2)
        assert qs[2] == -2

    def test_rejects_other_levels(self):
        with pytest.raises(ValueError):
            eta_quotient(7, 10)

    @pytest.mark.parametrize("level", [2, 3, 5, 11])
    def test_hecke_relations_to_100(self, level):
        from qvanish.arith import sieve_primes

        bound = 10000
        k = 24 // (level + 1)
        qs = eta_quotient(level, bound)
        for p in sieve_primes(100):
            if p != level:
                assert qs[p * p] == qs[p] ** 2 - p ** (k - 1), (level, p)

    @pytest.mark.parametrize("level", [2, 3, 5, 11])
    def test_multiplicativity(self, level):
        from math import gcd

        qs = eta_quotient(level, 900)
        for m in range(2, 31):
            for n in range(2, 31):
                if gcd(m, n) == 1:
                    assert qs[m * n] == qs[m] * qs[n]

    def test_residue_twin_matches(self):
        exact = eta_quotient(5, 150)
        lane = eta_quotient_mod(5, 150, LANE_PRIMES[0])
        assert list(lane.coeffs) == list(reduce_mod(exact, LANE_PRIMES[0]).coeffs)

    def test_single_coefficient(self):
        exact = eta_quotient(3, 60)
        assert eta_quotient_coefficient(3, 60) == exact[60]
        assert eta_quotient_coefficient(3, 17) == exact[17]


class TestEtaProduct:
    """One lane builder over Z/m, and its lift over Z, for every level; level 1 is Delta."""

    @pytest.mark.parametrize("m", LANE_PRIMES)
    @pytest.mark.parametrize("level", (1,) + ETA_QUOTIENT_LEVELS)
    def test_lane_matches_exact(self, level, m):
        bound = 300
        exact = eta_quotient(level, bound)
        want = reduce_mod(exact, m).coeffs.tolist()
        assert eta_product(level, bound, m).coeffs.tolist() == want
        if level == 1:
            assert delta_eta_mod(bound, m).coeffs.tolist() == want
        else:
            assert eta_quotient_mod(level, bound, m).coeffs.tolist() == want

    @pytest.mark.parametrize("level", (1,) + ETA_QUOTIENT_LEVELS)
    def test_matches_euler_oracle(self, level):
        bound = 300
        want = eta_product_by_euler(level, bound)
        assert list(eta_quotient(level, bound).coeffs) == want
        for m in LANE_PRIMES:
            assert eta_product(level, bound, m).coeffs.tolist() == [c % m for c in want]

    @pytest.mark.parametrize("modulus", [None, LANE_PRIMES[2]])
    @pytest.mark.parametrize("level, factors", [(1, 8), (2, 8), (3, 4), (5, 4), (11, 4)])
    def test_sparse_pass_count(self, monkeypatch, level, factors, modulus):
        # a // 3 cube and a % 3 pentagonal factors for each of eta(z)^a and
        # eta(Nz)^a, a = 24/(N+1); pentagonal factors alone would take 2a.
        # The first two factors seed the lane from their term lists, and
        # each later one is a dense pass: 6, 6, 2, 2 and 2 of them.  Over Z
        # the same calls run once in each lane the lift needs: to 500 that is
        # two lanes at weights 12 and 8, one at the others.
        calls = []
        for name in ("mul_sparse", "mul_sparse_mod"):

            def counting(a, s, inner=getattr(forms, name), name=name):
                calls.append((name, getattr(a, "modulus", None)))
                return inner(a, s)

            monkeypatch.setattr(forms, name, counting)

        def seeding(f, g, m, inner=forms.mul_sparse_sparse_mod):
            calls.append(("mul_sparse_sparse_mod", m))
            return inner(f, g, m)

        monkeypatch.setattr(forms, "mul_sparse_sparse_mod", seeding)
        if level == 1 and modulus is None:
            delta_eta(500)
        elif level == 1:
            delta_eta_mod(500, modulus)
        elif modulus is None:
            eta_quotient(level, 500)
        else:
            eta_quotient_mod(level, 500, modulus)
        lanes = [modulus] if modulus else LANE_PRIMES[: 2 if level in (1, 2) else 1]
        want = []
        for m in lanes:
            want += [("mul_sparse_sparse_mod", m)] + [("mul_sparse_mod", m)] * (factors - 2)
        assert calls == want

    @given(
        st.sampled_from((1,) + ETA_QUOTIENT_LEVELS), st.integers(min_value=1, max_value=300)
    )
    # both sides of the lane-count steps of Delta (25, 794) and of N = 2 (125)
    @example(1, 25)
    @example(1, 26)
    @example(1, 794)
    @example(1, 795)
    @example(2, 125)
    @example(2, 126)
    @settings(max_examples=60, deadline=None)
    def test_lift_matches_euler_oracle(self, level, bound):
        got = eta_quotient(level, bound).coeffs
        assert list(got) == eta_product_by_euler(level, bound)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize(
        "weight, last_bounds",
        [
            (12, [25, 794, 28521, 795228, 18675762]),
            (8, [125, 22376, 4816904, 709149044, 80708169314]),
        ],
    )
    def test_lane_count_steps(self, weight, last_bounds):
        # the last bound each count of lift moduli covers
        for lanes, bound in enumerate(last_bounds, start=1):
            assert forms.lift_reach(weight, lanes) == bound
            assert len(forms._lift_moduli(weight, bound)) == lanes
            if lanes < len(forms._LIFT_MODULI):
                assert len(forms._lift_moduli(weight, bound + 1)) == lanes + 1

    @pytest.mark.parametrize("level, reach", [(5, 15797), (11, 249561088)])
    def test_one_lane_reach(self, level, reach):
        # the first scan lane fixes a(n) to reach: 16 n^k < M^2 with M = LANE_PRIMES[0]
        weight = eta_product_spec(level).weight
        assert forms.lift_reach(weight, 1) == reach
        assert 16 * reach**weight < LANE_PRIMES[0] ** 2 <= 16 * (reach + 1) ** weight
        assert forms.lift_reach(weight, 0) == 0

    @pytest.mark.parametrize("level, limit", [(1, 18675762), (2, 80708169314)])
    def test_bound_past_the_last_lift_modulus_refused(self, monkeypatch, level, limit):
        # the last lift modulus covers limit; one more is refused before any lane
        built = []
        real = forms.eta_product

        def lane_counting(lvl, b, modulus):
            built.append(modulus)
            return real(lvl, b, modulus)

        monkeypatch.setattr(forms, "eta_product", lane_counting)
        with pytest.raises(ValueError, match=f"series stop at bound {limit};"):
            eta_quotient(level, limit + 1)
        assert built == []

    def test_bound_one(self):
        assert eta_quotient(1, 1).coeffs == (0, 1)
        assert eta_product(11, 1, LANE_PRIMES[0]).coeffs.tolist() == [0, 1]

    @pytest.mark.parametrize("level", [0, 4, 7, 12])
    def test_rejects_levels_out_of_scope(self, level):
        with pytest.raises(ValueError):
            eta_product(level, 10, LANE_PRIMES[0])
        with pytest.raises(ValueError):
            eta_quotient(level, 10)

    def test_rejects_bad_bound_and_modulus(self):
        with pytest.raises(ValueError):
            eta_product(1, 0, LANE_PRIMES[0])
        with pytest.raises(ValueError):
            eta_quotient(1, 0)
        with pytest.raises(ValueError):
            eta_product(2, 10, 9)

    def test_dilated_pentagonal_expansion(self):
        # prod (1 - q^(3n)) is prod (1 - q^n) with every index tripled
        plain = eta_raw(40)
        assert eta_raw(120, 3).terms == tuple((3 * i, c) for i, c in plain.terms)
        with pytest.raises(ValueError):
            eta_raw(10, 0)


class TestDeligneLift:
    """Single coefficients lifted from the lanes under Deligne's bound."""

    @pytest.fixture(scope="class")
    def series(self):
        bound = 5000
        return {
            level: (
                eta_quotient(level, bound),
                {m: eta_product(level, bound, m) for m in LANE_PRIMES}.__getitem__,
            )
            for level in (1,) + ETA_QUOTIENT_LEVELS
        }

    @pytest.mark.parametrize("level", (1,) + ETA_QUOTIENT_LEVELS)
    def test_lift_is_the_exact_series(self, series, monkeypatch, level):
        # 5000 lies inside the three lanes' range at every level (Delta's ends
        # at 28521), so the source serves every index and nothing is built
        exact, lane_of = series[level]
        monkeypatch.setattr(forms, "eta_product", None)
        if level == 1:
            got = [delta_coefficient(n, lane_of) for n in range(1, 5001)]
        else:
            got = [eta_quotient_coefficient(level, n, lane_of) for n in range(1, 5001)]
        assert got == list(exact.coeffs[1:])

    @pytest.mark.parametrize("level", (1,) + ETA_QUOTIENT_LEVELS)
    def test_deligne_bound_holds(self, series, level):
        # a(n)^2 <= d(n)^2 n^(k-1): the theorem the lift relies on
        exact, _ = series[level]
        k = eta_product_spec(level).weight
        for n in range(1, 2001):
            d = sigma_by_divisors(n, 0)
            assert exact[n] ** 2 <= d * d * n ** (k - 1), (level, n)

    @staticmethod
    def lanes_read(monkeypatch, level, bound):
        """a(1..bound) lifted through a lane source to bound, and the moduli
        each index read; building anything else fails."""
        lanes = {m: eta_product(level, bound, m) for m in LANE_PRIMES}
        monkeypatch.setattr(forms, "eta_product", None)
        read: list[int] = []

        def lane_of(m):
            read.append(m)
            return lanes[m]

        got, reads = [], []
        for n in range(1, bound + 1):
            read.clear()
            got.append(eta_quotient_coefficient(level, n, lane_of))
            reads.append(tuple(read))
        return got, reads

    def test_one_lane_covers_n_up_to_125_at_level_2(self, monkeypatch):
        # M = LANE_PRIMES[0] alone: 16 n^8 < M^2 exactly for n <= 125, so
        # 1..125 read one lane and 126..300 read two
        bound = 300
        exact = eta_quotient(2, bound)
        got, reads = self.lanes_read(monkeypatch, 2, bound)
        assert got == list(exact.coeffs[1:])
        assert reads == [LANE_PRIMES[:1]] * 125 + [LANE_PRIMES[:2]] * 175

    def test_delta_reads_a_second_lane_beyond_n_25(self, monkeypatch):
        # one lane covers tau only for n <= 25: 16 n^12 < M^2 stops there
        exact = delta_eta(40)
        got, reads = self.lanes_read(monkeypatch, 1, 40)
        assert got == list(exact.coeffs[1:])
        assert reads == [LANE_PRIMES[:1]] * 25 + [LANE_PRIMES[:2]] * 15

    def test_short_lane_refused(self):
        p, q = LANE_PRIMES[:2]
        short = {p: eta_quotient_mod(11, 10, p)}.__getitem__
        with pytest.raises(ValueError, match=rf"mod \[{p}\] do not cover n = 50"):
            eta_quotient_coefficient(11, 50, short)
        short = {p: delta_eta_mod(300, p), q: delta_eta_mod(100, q)}.__getitem__
        with pytest.raises(ValueError, match=rf"mod \[{q}\] do not cover n = 200"):
            delta_coefficient(200, short)


class TestFormSpec:
    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            FormSpec(weight=3, level=1, label="x", source="file")

    def test_rejects_bad_eta_level(self):
        with pytest.raises(ValueError):
            eta_product_spec(7)


class TestQexpFiles:
    def _spec(self):
        return FormSpec(weight=12, level=1, label="delta", source="delta-eta")

    def test_round_trip(self, tmp_path):
        qs = delta_eta(10)
        text = export_qexp(self._spec(), qs)
        path = tmp_path / "delta.qexp"
        path.write_text(text)
        spec2, qs2 = ingest_qexp(path)
        assert spec2.weight == 12 and spec2.level == 1 and spec2.label == "delta"
        assert qs2.coeffs == qs.coeffs
        assert export_qexp(spec2, qs2) == text

    def test_missing_index_rejected(self):
        text = "# weight: 12\n# level: 1\n# character: trivial\n1 1\n3 252\n"
        with pytest.raises(ValueError, match="missing index 2"):
            parse_qexp(text)

    def test_nontrivial_character_rejected(self):
        text = "# weight: 12\n# level: 1\n# character: chi\n1 1\n"
        with pytest.raises(ValueError, match="nontrivial character"):
            parse_qexp(text)

    def test_odd_weight_rejected(self):
        text = "# weight: 11\n# level: 1\n# character: trivial\n1 1\n"
        with pytest.raises(ValueError, match="odd weight"):
            parse_qexp(text)

    def test_non_integer_rejected(self):
        text = "# weight: 12\n# level: 1\n# character: trivial\n1 1.5\n"
        with pytest.raises(ValueError, match="non-integer"):
            parse_qexp(text)

    @pytest.mark.parametrize(
        "body, bad",
        [
            ("1 1\n2 -24\n3 1_0\n", "line 6: non-integer entry in '3 1_0'"),
            ("1 1\n2 -24\n3 252\n0_4 2\n", "line 7: non-integer entry in '0_4 2'"),
        ],
        ids=["value", "index"],
    )
    def test_digit_separator_in_body_rejected(self, body, bad):
        # int() alone reads '1_0' as 10 and '0_4' as 4
        text = "# weight: 12\n# level: 1\n# character: trivial\n" + body
        with pytest.raises(ValueError) as exc:
            parse_qexp(text)
        assert str(exc.value) == bad

    @pytest.mark.parametrize("weight, level", [("1_2", "1"), ("12", "0_1")])
    def test_digit_separator_in_header_rejected(self, weight, level):
        text = f"# weight: {weight}\n# level: {level}\n# character: trivial\n1 1\n"
        with pytest.raises(ValueError, match="weight and level headers must be integers"):
            parse_qexp(text)

    def test_malformed_header_rejected(self):
        text = "# weight 12\n# level: 1\n# character: trivial\n1 1\n"
        with pytest.raises(ValueError):
            parse_qexp(text)

    def test_missing_header_rejected(self):
        text = "# weight: 12\n# character: trivial\n1 1\n"
        with pytest.raises(ValueError, match="missing header"):
            parse_qexp(text)

    def test_export_requires_cusp_constant(self):
        spec = FormSpec(weight=4, level=1, label="e4", source="eisenstein:e4")
        with pytest.raises(ValueError, match="constant term"):
            export_qexp(spec, eisenstein_coeffs(2, 5))


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def _package_parse(text):
    spec, qs = parse_qexp(text)
    return spec.weight, spec.level, spec.label, qs.coeffs


def _at_body(mutate):
    """Apply mutate(lines, j) at a body line j (the four export headers come
    first), or leave lines alone when there is no body."""

    def at(lines, i):
        return mutate(lines, 4 + i % (len(lines) - 4)) if len(lines) > 4 else lines

    return at


def _edit_line(edit):
    return _at_body(lambda lines, j: lines[:j] + [edit(lines[j])] + lines[j + 1:])


def _edit_value(edit):
    def on_value(line):
        fields = line.split()
        return line if len(fields) < 2 else " ".join((fields[0], edit(fields[1]), *fields[2:]))

    return _edit_line(on_value)


def _carry_token(lines, j):
    """'1 a' / '2 b' becomes '1 a 2' / 'b': two tokens per line on average."""
    if j + 1 >= len(lines) or len(lines[j + 1].split()) < 2:
        return lines
    n, rest = lines[j + 1].split(None, 1)
    return lines[:j] + [f"{lines[j]} {n}", rest] + lines[j + 2:]


QEXP_MUTATIONS = {
    "blank line": lambda lines, i: lines[: i % len(lines)] + [""] + lines[i % len(lines):],
    "whitespace line": lambda lines, i: (
        lines[: i % len(lines)] + [" \t "] + lines[i % len(lines):]
    ),
    "plus sign": _edit_value(lambda v: "+" + v.lstrip("-")),
    "leading zeros": _edit_value(lambda v: v.replace("-", "-00") if "-" in v else "00" + v),
    "tab and padding": _edit_line(lambda line: "  " + line.replace(" ", "\t") + " "),
    "header after body": _at_body(
        lambda lines, j: lines[: j + 1] + ["# note: late"] + lines[j + 1:]
    ),
    "one field": _edit_line(lambda line: line.split(None, 1)[0] if line.strip() else line),
    "three fields": _edit_line(lambda line: line + " 0"),
    "mark as a field": _edit_line(lambda line: line.replace(" ", " ; ")),
    "mark as a value": _edit_value(lambda v: ";"),
    "carried token": _at_body(_carry_token),
    "decimal": _edit_value(lambda v: "1.5"),
    "separator in value": _edit_value(lambda v: v[:-1] + "_" + v[-1:]),
    "separator in index": _edit_line(lambda line: "0_" + line.lstrip() if line.strip() else line),
    "separator in header": lambda lines, i: ["# weight: 1_2"] + lines[1:],
    "gap": _at_body(lambda lines, j: lines[:j] + lines[j + 1:]),
    "duplicate index": _at_body(lambda lines, j: lines[: j + 1] + lines[j:]),
    "empty body": lambda lines, i: lines[:4],
    "no level header": lambda lines, i: [ln for ln in lines if not ln.startswith("# level")],
    "malformed header": lambda lines, i: ["# weight 12"] + lines[1:],
    "odd weight": lambda lines, i: ["# weight: 11"] + lines[1:],
    "zero weight": lambda lines, i: ["# weight: 0"] + lines[1:],
    "zero level": lambda lines, i: [lines[0], "# level: 0"] + lines[2:],
    "character": lambda lines, i: lines[:2] + ["# character: chi"] + lines[3:],
}

coefficient = st.one_of(
    st.integers(-(10**6), 10**6), st.integers(-(10**25), 10**25)
)


class TestQexpParity:
    """parse_qexp against tests/oracles.parse_qexp_by_lines, the format read line by line."""

    @given(
        st.lists(coefficient, min_size=1, max_size=25),
        st.sampled_from([2, 4, 12]),
        st.integers(1, 60),
        st.lists(
            st.tuples(st.sampled_from(sorted(QEXP_MUTATIONS)), st.integers(0, 10**6)),
            max_size=3,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_line_reference(self, coeffs, weight, level, mutations, newline):
        spec = FormSpec(weight=weight, level=level, label="f", source="file")
        lines = export_qexp(spec, QSeries((0, *coeffs))).splitlines()
        for name, i in mutations:
            lines = QEXP_MUTATIONS[name](lines, i)
        text = newline.join(lines) + newline
        assert _outcome(_package_parse, text) == _outcome(parse_qexp_by_lines, text)

    @pytest.mark.parametrize(
        "body",
        [
            "1 5 2\n7\n",
            "1\n5 2 7\n",
            "1 5\n2 ; 7\n",
            "1 5 ;\n2 7\n",
            "1 ;\n2 7\n",
            "1 5\n3 7\nx 2\n",  # a bad line after a gap is named first
            "",
        ],
    )
    def test_rejection_matches(self, body):
        text = "# weight: 2\n# level: 11\n# character: trivial\n" + body
        expected = _outcome(parse_qexp_by_lines, text)
        assert expected[0] == "error"
        assert _outcome(_package_parse, text) == expected
