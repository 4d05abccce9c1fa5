import contextlib
import functools
import io
import os
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qvanish
from qvanish import ec
from qvanish.arith import factorize, sieve_primes
from qvanish.ec import (
    FIXTURES,
    WeierstrassCurve,
    ap_bad,
    ap_good,
    parse_curve,
    prime_table,
)
from qvanish.cli import main
from qvanish.forms import eta_quotient
from qvanish.hecke import qexp_from_primes
from qvanish.vanish import prime_sieve

from .oracles import count_affine_points, count_nonsingular, curve_mul, point_order, x_ladder

C37 = FIXTURES["37a1"]
C53 = FIXTURES["53a1"]
# y^2 = x^3 + 5^2 x: additive reduction at 5
C_ADD = WeierstrassCurve(0, 0, 0, 25, 0, label="additive-5")
# split multiplicative at 11 (the level-11 curve)
C11 = WeierstrassCurve(0, -1, 1, -10, -20, label="11a1")
# additive at 3, where the character sum now counts the bad prime too
C27 = WeierstrassCurve(0, 0, 1, 0, -7, label="27a1")
CURVES = [C37, C53, C11, C27, C_ADD]
CURVE_IDS = [c.label for c in CURVES]


def change_coordinates(curve, r, s, t):
    """The model in x = x' + r, y = y' + s x' + t (Silverman, Table 3.1, u = 1)."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    return WeierstrassCurve(
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def scaled(curve, u):
    """The model with every a_i multiplied by u^i: the curve again, not minimal at u's primes."""
    return WeierstrassCurve(
        curve.a1 * u, curve.a2 * u**2, curve.a3 * u**3, curve.a4 * u**4, curve.a6 * u**6
    )


def curve_arg(curve):
    return f"{curve.a1},{curve.a2},{curve.a3},{curve.a4},{curve.a6}"


def cli_mf(curve):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["mf", f"--curve={curve_arg(curve)}"])
    return code, out.getvalue()


class TestModel:
    def test_discriminants(self):
        assert C37.discriminant == 37
        assert C53.discriminant == -53

    def test_singular_model_rejected(self):
        with pytest.raises(ValueError, match="discriminant"):
            WeierstrassCurve(0, 0, 0, 0, 0)

    def test_parse_curve(self):
        c = parse_curve("0,0,1,-1,0")
        assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (0, 0, 1, -1, 0)
        with pytest.raises(ValueError):
            parse_curve("1,2,3")
        # int() alone reads -1_0 as -10
        with pytest.raises(ValueError, match="without '_' separators"):
            parse_curve("0,0,1,-1_0,0")

    def test_levels(self):
        assert C37.level == 37
        assert C53.level == 53
        assert [c.level for c in (C11, C27, C_ADD)] == [11, 3, 10]

    @pytest.mark.parametrize(
        "model, p",
        [
            (scaled(C37, 2), 2),
            (WeierstrassCurve(0, 0, 0, -16, 0), 2),  # 32a2 scaled by u = 2
            (scaled(C37, 5), 5),
        ],
        ids=["37a1-u2", "32a2-u2", "37a1-u5"],
    )
    def test_non_minimal_models_refused(self, model, p):
        with pytest.raises(ValueError, match=f"may not be minimal at p={p}"):
            model.level
        with pytest.raises(ValueError, match=f"may not be minimal at p={p}"):
            prime_table(model, 10)


class TestGoodPrimes:
    def test_37a1_known_values(self):
        assert ap_good(C37, 2) == -2
        assert ap_good(C37, 7) == -1

    def test_53a1_known_values(self):
        assert ap_good(C53, 3) == -3
        assert ap_good(C53, 7) == -4

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError, match="divides the discriminant"):
            ap_good(C37, 37)

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_char_sum_equals_enumeration_to_200(self, curve):
        for p in sieve_primes(200):
            if curve.discriminant % p == 0:
                continue
            ap = ap_good(curve, p)
            a = curve
            naive = p + 1 - (
                count_affine_points(a.a1, a.a2, a.a3, a.a4, a.a6, p) + 1
            )
            assert ap == naive, (curve.label, p)
            assert ap * ap <= 4 * p


class TestCharSums:
    """One _char_sums call against enumeration, at every odd prime up to 600."""

    @settings(max_examples=3, deadline=None)
    @given(a=st.tuples(*[st.integers(-12, 12)] * 5))
    def test_random_minimal_curves_equal_enumeration(self, a):
        try:
            curve = WeierstrassCurve(*a)
            curve.level
        except ValueError:
            assume(False)
        primes = sieve_primes(600)[1:]  # p = 3 and the odd bad primes included
        assume(any(curve.discriminant % p == 0 for p in primes))
        sums = ec._char_sums(curve, primes)
        assert sums == [count_affine_points(*a, p) - p for p in primes]

    def test_passes_split_by_width(self, monkeypatch):
        # passes [3, 5], [7], [11] and [13]: a prime wider than the cap has its own
        primes = [3, 5, 7, 11, 13]
        want = ec._char_sums(C37, primes)
        monkeypatch.setattr(ec, "CHAR_SUM_WIDTH", 8)
        assert ec._char_sums(C37, primes) == want
        assert want == [count_affine_points(0, 0, 1, -1, 0, p) - p for p in primes]
        assert ec._char_sums(C37, []) == []


class TestBadPrimes:
    def test_fixture_bad_values_from_brute_force(self):
        # Frozen from the independent full-enumeration nonsingular count
        # (both fixtures reduce to a nonsplit node).
        assert ap_bad(C37, 37) == -1
        assert ap_bad(C53, 53) == -1

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_every_bad_prime_from_brute_force(self, curve):
        a = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
        bad = [p for p in sieve_primes(200) if curve.discriminant % p == 0]
        assert bad
        for p in bad:
            ap = ap_bad(curve, p)
            assert ap == p - count_affine_points(*a, p), (curve.label, p)
            assert ap == p - count_nonsingular(*a, p), (curve.label, p)

    def test_additive_fixture(self):
        assert C_ADD.discriminant % 5 == 0
        assert ap_bad(C_ADD, 5) == 0

    def test_split_case(self):
        assert C11.discriminant % 11 == 0
        assert ap_bad(C11, 11) == 1

    def test_reduction_kinds(self):
        assert C37.discriminant % 37 == 0
        assert ap_bad(C37, 37) == -1
        assert C37.discriminant % 2 != 0

    def test_rejects_good_prime(self):
        with pytest.raises(ValueError, match="does not divide"):
            ap_bad(C37, 5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.tuples(*[st.integers(-12, 12)] * 5))
    def test_reduction_type_equals_the_character_sum(self, a):
        # additive (0) where p | c4, else (-c6 / p), at every bad p >= 5
        try:
            curve = WeierstrassCurve(*a)
            level = curve.level
        except ValueError:
            assume(False)
        bad = [p for p, _ in factorize(level) if p >= 5]
        assume(bad)
        assert ec._aps(curve, bad) == {p: -s for p, s in zip(bad, ec._char_sums(curve, bad))}

    @pytest.mark.parametrize("table", [prime_table, ec.scan_table], ids=["prime", "scan"])
    def test_no_bad_prime_from_5_on_reaches_a_character_sum(self, monkeypatch, table):
        summed = []
        char_sums = ec._char_sums
        monkeypatch.setattr(
            ec, "_char_sums",
            lambda c, primes: summed.extend((c, p) for p in primes) or char_sums(c, primes),
        )
        for curve in CURVES:
            a = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
            bad = [p for p, _ in factorize(curve.level) if p >= 5]
            got = table(curve, 2000).table
            assert {p: got[p] for p in bad} == {p: p - count_affine_points(*a, p) for p in bad}
        assert summed
        assert [(c.label, p) for c, p in summed if p >= 5 and c.level % p == 0] == []


class TestPrimeTable:
    def test_37a1_table_to_7(self):
        pt = prime_table(C37, 7)
        assert pt.table == {2: -2, 3: -3, 5: -2, 7: -1}

    def test_53a1_table_to_7(self):
        assert prime_table(C53, 7).table == {2: -1, 3: -3, 5: 0, 7: -4}

    def test_bound_two(self):
        assert len(prime_table(C37, 2).table) == 1

    def test_bound_one(self):
        # no prime, and all that a(1) = 1 needs; the level is still checked
        pt = prime_table(C37, 1)
        assert (pt.table, pt.bound, pt.level) == ({}, 1, 37)
        assert qexp_from_primes(pt, 1).coeffs == (0, 1)
        with pytest.raises(ValueError, match="may not be minimal"):
            prime_table(WeierstrassCurve(0, 0, 8, -16, 0), 1)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            prime_table(C37, 0)

    def test_bad_prime_entry(self):
        pt = prime_table(C37, 40)
        assert pt.level % 37 == 0
        assert pt.table[37] == -1

    def test_known_expansions_through_q9(self):
        assert qexp_from_primes(prime_table(C37, 9), 9).coeffs == (
            0, 1, -2, -3, 2, -2, 6, -1, 0, 6,
        )
        assert qexp_from_primes(prime_table(C53, 9), 9).coeffs == (
            0, 1, -1, -3, -1, 0, 3, -4, 3, 6,
        )

    def test_hasse_everywhere(self):
        pt = prime_table(C53, 300)
        for p, ap in pt.table.items():
            if pt.level % p:
                assert ap * ap <= 4 * p


def good_primes(curve, lo, hi):
    return [p for p in sieve_primes(hi) if p >= lo and curve.discriminant % p]


class TestBSGS:
    """Baby-step giant-step in int64 lanes against the character sum and Python ints."""

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_equals_char_sum_to_20000(self, curve):
        # from 11 on: the x a lane tries are distinct mod p from 12 on, and
        # a repeated x only repeats a point
        primes = good_primes(curve, 11, 20000)
        found = ec._lane_aps(curve, primes)
        assert dict(zip(found, (-s for s in ec._char_sums(curve, list(found))))) == found
        # the lanes answer nearly everywhere, so the agreement is not vacuous
        assert len(primes) - len(found) < len(primes) // 20

    # (steps of _lane_aps at 14000, most lanes left open at 14000 and at
    # 20000) for the good primes above BSGS_CROSSOVER.  The table to 14000 is
    # one round of chunks, and a lane takes one point in its first step, two
    # in its second and the rest in its third.  Each point stands alone, so
    # one lane of 37a1 and one of 11a1 that two points leave open take the
    # third step; the CM curves 27a1 and y^2 = x^3 + 25x need it too.
    LANE_ROUNDS = {"37a1": (3, 0), "53a1": (2, 0), "11a1": (3, 0), "27a1": (3, 1),
                   "additive-5": (3, 1)}

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_few_rounds_and_no_more_open_lanes(self, curve, monkeypatch):
        rounds, open_lanes = self.LANE_ROUNDS[curve.label]
        widths = []
        step = ec._Lanes.step
        monkeypatch.setattr(
            ec._Lanes, "step", lambda lanes, found: widths.append(len(lanes.p)) or step(lanes, found)
        )
        primes = good_primes(curve, ec.BSGS_CROSSOVER + 1, 14000)
        assert len(ec._lane_aps(curve, primes)) >= len(primes) - open_lanes
        assert len(widths) == rounds
        primes = good_primes(curve, ec.BSGS_CROSSOVER + 1, 20000)
        assert len(ec._lane_aps(curve, primes)) >= len(primes) - open_lanes

    # the good primes above BSGS_CROSSOVER to 60000, three rounds, that no
    # point of their lane settles, so the character sum counts them
    UNSETTLED = {"37a1": set(), "53a1": set(), "11a1": set(), "27a1": {11719},
                 "additive-5": {16633, 31249}}

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_fallbacks_do_not_grow(self, curve):
        primes = good_primes(curve, ec.BSGS_CROSSOVER + 1, 60000)
        assert set(primes) - set(ec._lane_aps(curve, primes)) == self.UNSETTLED[curve.label]

    @pytest.mark.parametrize("curve", [C_ADD, C27], ids=["25x", "27a1"])
    def test_later_rounds_equal_char_sums(self, curve, monkeypatch):
        # From 2^14 on each bit length is a round of its own, and each round
        # steps until none of its lanes is open: the CM curves keep many
        # open past the first step.  About 40 good primes above 2^16, over
        # the last two rounds, each answered by a lane, against the
        # character sum.
        found = {}
        lane_aps = ec._lane_aps
        monkeypatch.setattr(
            ec, "_lane_aps", lambda c, primes: found.update(lane_aps(c, primes)) or found
        )
        table = prime_table(curve, 200000).table
        primes = good_primes(curve, 2**16, 200000)[::280]
        assert len(primes) >= 40 and set(primes) <= set(found)
        assert {p: table[p] for p in primes} == {
            p: -s for p, s in zip(primes, ec._char_sums(curve, primes))
        }

    def test_lanes_skip_the_flex_at_x0_when_j_is_0(self):
        # 27a1 has a = 0 on the short model, where (0, r^2) is a flex of
        # order 3: no lane takes x = 0, and each still has BSGS_POINTS points
        primes = good_primes(C27, ec.BSGS_CROSSOVER + 1, 3000)
        lanes = ec._Lanes.new(C27, primes)
        assert (lanes.a == 0).all()
        assert lanes.x.shape == (ec.BSGS_POINTS, len(primes)) and (lanes.x != 0).all()
        # 37a1 (a != 0, b != 0 mod these p) starts every lane at x = 0
        lanes = ec._Lanes.new(C37, good_primes(C37, ec.BSGS_CROSSOVER + 1, 3000))
        assert (lanes.x[0] == 0).all()

    @settings(max_examples=40, deadline=None)
    @given(a=st.tuples(*[st.integers(-30, 30)] * 5))
    def test_random_minimal_curves(self, a):
        try:
            curve = WeierstrassCurve(*a)
            curve.level
        except ValueError:
            assume(False)
        table = prime_table(curve, 3000).table
        primes = good_primes(curve, ec.BSGS_CROSSOVER + 1, 3000)
        assert primes
        assert {p: table[p] for p in primes} == {
            p: -s for p, s in zip(primes, ec._char_sums(curve, primes))
        }

    @pytest.mark.parametrize("p", [p for p in sieve_primes(60) if p >= 5])
    def test_annihilators_are_the_multiples_of_the_order(self, p):
        # Every affine point of y^2 = x^3 + a*x + b and of its twist by a
        # non-square d, for a few (a, b) at small p, where small orders and
        # non-cyclic groups are common: one lane per point.
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        points = []
        for a, b in [(0, 1), (1, 0), (2, 3), (p - 1, 0), (3, 5)]:
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            for ca, cb in ((a, b), (a * d * d % p, b * d**3 % p)):
                points += [
                    (x, y, ca) for x in range(p) for y in range(p)
                    if (y * y - x**3 - ca * x - cb) % p == 0
                ]
        x, y, a = (np.array(c, dtype=np.int64) for c in zip(*points))
        lanes = np.full_like(x, p)
        width = isqrt(4 * p)
        lo, span = p + 1 - width, 2 * width
        m = ec._baby_steps(p)
        P = (x, y, np.ones_like(x))
        N = ec._annihilators(P, a, lanes, lanes * 0 + lo, lanes * 0 + span, m)
        for i, (px, py, ca) in enumerate(points):
            order = point_order((px, py), ca, p)
            expected = {k for k in range(lo, lo + span + 1) if k % order == 0}
            if order <= 2 * m:
                assert not N[:, i].any(), (px, py, ca)
            else:
                assert set(N[:, i].tolist()) - {0} == expected, (px, py, ca)

    def test_group_law_at_the_largest_primes_below_2_31(self):
        # Products of residues near 2^31 come close to the int64 bound; each
        # lane is checked against Python ints, on the points a lane would take.
        primes = [2147483647, 2147483629, 2147483587]
        c4, c6 = C37.c_invariants
        for x in (0, 1, 2):
            lanes, refs = [], []
            for p in primes:
                a, b = -27 * c4 % p, -54 * c6 % p
                r = (x**3 + a * x + b) % p
                lanes.append((x * r % p, r * r % p, a * r * r % p, p))
                refs.append(((x * r % p, r * r % p), a * r * r % p))
            px, py, a, p = (np.array(c, dtype=np.int64) for c in zip(*lanes))
            P = (px, py, np.ones_like(px))
            k = 40
            mx, my, minf = ec._affine(ec._walk(P, P, a, p), k, p)
            for i, (R, ca) in enumerate(refs):
                want = [curve_mul(j, R, ca, primes[i]) for j in range(1, k + 1)]
                assert list(zip(mx[:, i].tolist(), my[:, i].tolist())) == want
                assert not minf[:, i].any()
            n = np.array([q + 1 - 2 * isqrt(q) + 3 for q in primes], dtype=np.int64)
            nx, ny, _ = ec._affine(iter([ec._mul(n, (mx, my, np.ones_like(mx)), a, p)]), 1, p)
            for i, (R, ca) in enumerate(refs):
                assert (nx[0, i], ny[0, i]) == curve_mul(int(n[i]), R, ca, primes[i])
            minus = (px, (p - py) % p, np.ones_like(px))
            assert (ec._add(P, minus, a, p)[2] == 0).all()
            O = (0 * px, 0 * px + 1, 0 * px)
            for S in (ec._add(O, P, a, p), ec._add(P, O, a, p)):
                assert all((s == c).all() for s, c in zip(S, P))

    def test_forced_fallback_gives_same_answers(self, monkeypatch):
        bound = 2 * ec.BSGS_CROSSOVER
        tables = {c.label: prime_table(c, bound).table for c in CURVES}
        calls = []
        char_sums = ec._char_sums

        def counted(curve, primes):
            calls.extend(primes)
            return char_sums(curve, primes)

        monkeypatch.setattr(ec, "_lane_aps", lambda curve, primes: {})
        monkeypatch.setattr(ec, "_char_sums", counted)
        for c in CURVES:
            assert prime_table(c, bound).table == tables[c.label]
        # Every odd prime went by the character sum, but the bad ones from 5 on.
        assert sorted(calls) == sorted(
            p for c in CURVES for p in sieve_primes(bound)
            if p > 2 and (p == 3 or c.discriminant % p)
        )

    def test_hasse_guard_above_crossover(self, monkeypatch):
        bound = 2 * ec.BSGS_CROSSOVER
        p = good_primes(C37, ec.BSGS_CROSSOVER + 1, bound)[0]
        monkeypatch.setattr(ec, "_lane_aps", lambda curve, primes: {q: q for q in primes})
        with pytest.raises(ValueError, match=f"Hasse bound violated at p={p}"):
            ap_good(C37, p)
        with pytest.raises(ValueError, match=f"Hasse bound violated at p={p}"):
            prime_table(C37, bound)

    def test_primes_from_2_31_refused(self, monkeypatch):
        # the int64 lanes end there, and the O(p) character sum would not end at all
        calls = []
        monkeypatch.setattr(ec, "_char_sums", lambda curve, primes: calls.extend(primes))
        monkeypatch.setattr(ec, "_lane_aps", lambda curve, primes: calls.extend(primes))
        p = 2147483659  # the least prime above 2^31
        for ap in (ap_good, lambda curve, p: ec._aps(curve, [p])):
            with pytest.raises(ValueError, match="below 2\\^31"):
                ap(C37, p)
        with pytest.raises(ValueError, match="below 2\\^31"):
            prime_table(C37, 2**31)
        assert calls == []


class TestLadder:
    """The x-only ladder certifies a_p != 0 only where it is, and leaves every a_p = 0 open."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.tuples(*[st.integers(-30, 30)] * 5))
    def test_random_minimal_curves_to_2000(self, a):
        try:
            curve = WeierstrassCurve(*a)
            curve.level
        except ValueError:
            assume(False)
        exact = prime_table(curve, 2000).table
        scan = ec.scan_table(curve, 2000)
        good = good_primes(curve, 5, 2000)
        assert scan.nonzero <= set(good)
        assert [p for p in scan.nonzero if exact[p] == 0] == []
        assert [p for p in good if exact[p] == 0 and p not in scan.table] == []
        assert scan.table == {p: exact[p] for p in scan.table}
        assert set(scan.table) | scan.nonzero == set(exact)

    @pytest.mark.parametrize("curve", [C37, C_ADD], ids=["37a1", "25x"])
    def test_largest_primes_below_2_31(self, curve):
        # residues near 2^31 bring products near 2^62: each lane's Z equals the
        # ladder in Python ints, so no int64 product overflowed, and its
        # verdict agrees with ap_good (y^2 = x^3 + 25x has a_p = 0 at p = 3 mod 4)
        primes = [2147483647, 2147483629, 2147483587, 2147483579, 2147483549]
        c4, c6 = curve.c_invariants
        p = np.array(primes, dtype=np.int64)
        a, b = (np.array([c % q for q in primes], dtype=np.int64) for c in (-27 * c4, -54 * c6))
        aps = {q: ap_good(curve, q) for q in primes}
        assert 0 in aps.values() or curve is C37
        Z = ec._ladder(a, b, p)
        want = [x_ladder(1, q + 1, int(aq), int(bq), q, bits=32)[1]
                for q, aq, bq in zip(primes, a, b)]
        assert Z.tolist() == want
        assert [q for q, z in zip(primes, want) if z and aps[q] == 0] == []
        assert ec._open_primes(curve, primes) == [q for q in primes if aps[q] == 0]

    def test_open_primes_with_nonzero_a_p_take_their_exact_value(self, monkeypatch):
        # x(P) = 1 leaves open four primes of 37a1 to 14000 whose a_p is not
        # 0 (P has order dividing p + 1 there); the router counts each, and
        # the scan reports the exact series' zeros
        pt = prime_table(C37, 14000)
        exact = pt.table
        good = good_primes(C37, 5, 14000)
        opened = ec._open_primes(C37, good)
        assert [(p, exact[p]) for p in opened if exact[p]] == [
            (101, 3), (1283, -36), (1301, 30), (10369, 38)
        ]
        assert sorted(p for p in good if exact[p] == 0) == [p for p in opened if not exact[p]]
        sent = []
        aps = ec._aps
        monkeypatch.setattr(ec, "_aps", lambda c, primes: sent.extend(primes) or aps(c, primes))
        scan = ec.scan_table(C37, 14000)
        assert set(opened) <= set(sent) and set(sent) == set(scan.table)
        assert {p: scan.table[p] for p in opened} == {p: exact[p] for p in opened}
        report = prime_sieve(scan)
        assert report == prime_sieve(pt)
        assert report.zeros == [n for n in range(1, 14001) if pt.series[n] == 0]

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
    def test_oracle_is_the_group_law(self, p):
        # x(nP) of the x-only formulas equals the affine group law's, O as Z = 0,
        # on nonsingular curves, 2-torsion points and j = 0, 1728 included
        for a, b in [(1, 1), (2, 3), (0, 1), (1, 0), (p - 1, 0)]:
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            for x in range(1, p):
                y = next((y for y in range(p) if (y * y - x**3 - a * x - b) % p == 0), None)
                for n in range(1, 2 * p + 4) if y is not None else ():
                    X, Z = x_ladder(x, n, a, b, p)
                    R = curve_mul(n, (x, y), a, p)
                    assert (Z == 0) == (R is None), (a, b, x, n)
                    assert X % p != 0 if R is None else X == R[0] * Z % p, (a, b, x, n)


class TestRoute:
    """_aps is the one router: prime_table, ap_good and ap_bad all go through it."""

    @pytest.mark.parametrize(
        "ap, p",
        [(ap_good, 4), (ap_good, 0), (ap_good, -5), (ap_good, 1), (ap_bad, 1), (ap_bad, 37**2)],
        ids=["good-4", "good-0", "good-minus-5", "good-1", "bad-1", "bad-37^2"],
    )
    def test_non_prime_refused(self, monkeypatch, ap, p):
        # before the discriminant test (37 % 0, 37 % 1) and before any count
        monkeypatch.setattr(ec, "_aps", None)
        with pytest.raises(ValueError, match=f"p={p} is not prime"):
            ap(C37, p)

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_table_takes_one_lane_call_and_sums_the_rest(self, curve, monkeypatch):
        lane_calls, summed = [], []
        lane_aps, char_sums = ec._lane_aps, ec._char_sums

        def lanes(c, primes):
            lane_calls.append((primes, lane_aps(c, primes)))
            return lane_calls[-1][1]

        monkeypatch.setattr(ec, "_lane_aps", lanes)
        monkeypatch.setattr(
            ec, "_char_sums", lambda c, primes: summed.append(primes) or char_sums(c, primes)
        )
        prime_table(curve, 20000)
        primes = sieve_primes(20000)
        bad = [p for p in primes if curve.discriminant % p == 0]
        ((sent, found),) = lane_calls
        assert sent == [p for p in primes if p > ec.BSGS_CROSSOVER and p not in bad]
        # one call for every prime the lanes leave, but the bad primes from 5 on
        assert summed == [[
            p for p in primes
            if p > 2 and (p <= ec.BSGS_CROSSOVER or p not in found) and (p == 3 or p not in bad)
        ]]

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_single_primes_equal_the_table_to_3000(self, curve):
        table = prime_table(curve, 3000).table
        single = {p: (ap_good if curve.discriminant % p else ap_bad)(curve, p) for p in table}
        assert single == table


IDENTITY_BOUND = 200000
# the other two minimal models of the isogeny class 11a
C11A2 = WeierstrassCurve(0, -1, 1, -7820, -263580, label="11a2")
C11A3 = WeierstrassCurve(0, -1, 1, 0, 0, label="11a3")


@functools.cache
def identity_table(curve):
    return prime_table(curve, IDENTITY_BOUND)


class TestIdentities:
    """Theorems that tie the engines together, checked at every p <= IDENTITY_BOUND."""

    def test_eta_quotient_11_is_the_newform_of_11a1(self):
        # S_2(Gamma0(11)) has dimension one
        assert eta_quotient(11, IDENTITY_BOUND) == identity_table(C11).series

    def test_isogenous_curves_have_equal_tables(self):
        table = identity_table(C11).table
        for model in (C11A2, C11A3):
            assert identity_table(model).table == table, model.label

    def test_quadratic_twist_by_5(self):
        # y^2 = x^3 + 25x is the twist by 5 of y^2 = x^3 + x
        twist = identity_table(C_ADD).table
        base = identity_table(WeierstrassCurve(0, 0, 0, 1, 0)).table
        for p in sieve_primes(IDENTITY_BOUND)[3:]:
            legendre = 1 if pow(5, (p - 1) // 2, p) == 1 else -1
            assert twist[p] == legendre * base[p], p


class TestResultChecks:
    """The checks that guard a_p are exceptions, so python -O keeps them."""

    def test_hasse_violation_raises(self, monkeypatch):
        monkeypatch.setattr(ec, "_char_sums", lambda curve, primes: [3 * p for p in primes])
        with pytest.raises(ValueError, match="Hasse bound violated at p=5"):
            ap_good(C37, 5)

    def test_bad_prime_value_out_of_range_raises(self, monkeypatch):
        # a bad prime from 5 on takes its reduction type, so 3 is the one a sum counts
        monkeypatch.setattr(ec, "_char_sums", lambda curve, primes: [-2 for p in primes])
        with pytest.raises(ValueError, match="outside"):
            ap_bad(C27, 3)

    def test_hasse_check_survives_python_O(self):
        script = (
            "from qvanish import ec\n"
            "assert False, 'asserts are live: not running under -O'\n"
            "ec._char_sums = lambda curve, primes: [3 * p for p in primes]\n"
            "try:\n"
            "    ec.ap_good(ec.FIXTURES['37a1'], 5)\n"
            "except ValueError as exc:\n"
            "    print('refused:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qvanish.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("refused: Hasse bound violated at p=5")


TABLE_BOUND = 500
REFERENCE = {
    c.label: (prime_table(c, TABLE_BOUND).table, cli_mf(c)) for c in CURVES
}


class TestIsomorphicModels:
    """A change of coordinates gives the same curve, so the same answers."""

    @settings(max_examples=100, deadline=None)
    @given(
        curve=st.sampled_from(CURVES),
        r=st.integers(-50, 50),
        s=st.integers(-50, 50),
        t=st.integers(-50, 50),
    )
    def test_same_table_and_mf(self, curve, r, s, t):
        model = change_coordinates(curve, r, s, t)
        assert model.discriminant == curve.discriminant
        table, mf = REFERENCE[curve.label]
        assert prime_table(model, TABLE_BOUND).table == table
        assert cli_mf(model) == mf

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_scaled_by_two_exits_2(self, curve):
        assert cli_mf(scaled(curve, 2)) == (2, "")
