import contextlib
import functools
import hashlib
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
from qvanish import ec, vanish
from qvanish.arith import factorize, sieve_primes, smallest_prime_factors
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

from .oracles import (
    count_affine_points, count_nonsingular, curve_mul, point_order, x_add, x_double, x_ladder,
)

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
        # from 11 on: the u a lane tries, 1 to 11, are distinct mod p, and
        # at p = 11 the lane drops u = 11 = 0 and still has BSGS_POINTS
        primes = good_primes(curve, 11, 20000)
        found = ec._lane_aps(curve, primes)
        assert dict(zip(found, (-s for s in ec._char_sums(curve, list(found))))) == found
        # the lanes answer nearly everywhere, so the agreement is not vacuous
        assert len(primes) - len(found) < len(primes) // 20

    # (steps of _lane_aps at 14000, most lanes left open at 14000 and at
    # 20000) for the good primes above BSGS_CROSSOVER.  The table to 14000 is
    # one round of chunks, and a lane takes one point in its first step, two
    # in its second and the rest in its third.  Each point stands alone, so
    # one lane of 37a1 and of 53a1 and three of 11a1 that two points leave
    # open take the third step; the CM curves 27a1 and y^2 = x^3 + 25x need
    # it too.
    LANE_ROUNDS = {"37a1": (3, 0), "53a1": (3, 0), "11a1": (3, 0), "27a1": (3, 0),
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
    UNSETTLED = {"37a1": set(), "53a1": set(), "11a1": set(), "27a1": set(),
                 "additive-5": {659}}

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
        # 27a1 has a = 0 on the short model, where the points at x = 0 are
        # flexes, of order 3.  A lane's points are x = 1/u, u = 1, 2, ...,
        # so none has x = 0, and each lane of 27a1 and of 37a1 still has
        # BSGS_POINTS distinct points, none a root of its scaled model
        for curve in (C27, C37):
            primes = good_primes(curve, ec.BSGS_CROSSOVER + 1, 3000)
            lanes = ec._Lanes.new(curve, primes)
            assert (lanes.a == 0).all() == (curve is C27)
            u = lanes.u
            assert u.shape == (ec.BSGS_POINTS, len(primes))
            assert (u % lanes.p != 0).all() and (np.diff(u, axis=0) > 0).all()
            assert ((1 + lanes.a * u**2 + lanes.b * u**3) % lanes.p != 0).all()

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
        # non-cyclic groups are common: one x-only lane per point, x = 1 on
        # the model scaled by x, (a/x^2, b/x^3).  The points at x = 0 have
        # no such lane, and no lane takes them; but at these p the chains
        # often meet them as differences (jP, j = 2..m-1, S = (2m+1)P or a
        # giant step but the last two), and such a lane has no verdict.
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        points = []
        for a, b in [(0, 1), (1, 0), (2, 3), (p - 1, 0), (3, 5)]:
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            for ca, cb in ((a, b), (a * d * d % p, b * d**3 % p)):
                points += [
                    (x, y, ca, cb) for x in range(1, p) for y in range(p)
                    if (y * y - x**3 - ca * x - cb) % p == 0
                ]
        a = np.array([ca * pow(x, -2, p) % p for x, _, ca, _ in points], dtype=np.int64)
        b = np.array([cb * pow(x, -3, p) % p for x, _, _, cb in points], dtype=np.int64)
        lanes = np.full_like(a, p)
        width = isqrt(4 * p)
        lo, span = p + 1 - width, 2 * width
        m = ec._baby_steps(p)
        step = 2 * m + 1
        t, rows = (lo + m) // step, -(-span // step) + 1
        differences = [*range(2, m), step] + [(t + i) * step for i in range(rows - 2)]
        N = ec._annihilators(a, b, lanes, lanes * 0 + lo, lanes * 0 + span, m)
        for i, (px, py, ca, _) in enumerate(points):
            order = point_order((px, py), ca, p)
            multiples = [k for k in range(lo, lo + span + 1) if k % order == 0]
            at_x0 = any((curve_mul(n, (px, py), ca, p) or (1,))[0] == 0 for n in differences)
            if order <= 2 * m or len(multiples) > 1 or at_x0:
                assert N[i] == 0, (px, py, ca)
            else:
                assert N[i] == multiples[0], (px, py, ca)

    def test_group_law_at_the_largest_primes_below_2_31(self):
        # Products of residues near 2^31 come close to the int64 bound.  On
        # the points lanes of 37a1 take (x = 1 on the model scaled by u), the
        # chains of _xdbl and _xadd give each value that the same steps give
        # in Python ints, and x(nP) of the ladder in Python ints: the baby
        # steps jP = (j-1)P + P, difference (j-2)P, and the giant steps
        # G + S, S = 7P, with the step before last as the difference.
        primes = [2147483647, 2147483629, 2147483587]
        c4, c6 = C37.c_invariants
        models = [(-27 * c4 * u**2 % q, -54 * c6 * u**3 % q, q) for q in primes for u in (1, 2, 3)]
        a, b, p = (np.array(c, dtype=np.int64) for c in zip(*models))
        b4, b8 = 4 * b % p, 8 * b % p
        one = (np.ones_like(p), np.ones_like(p))
        chain, steps = {1: one, 2: ec._xdbl(one, a, b, b8, p)}, {}
        for j in range(3, 41):
            chain[j] = ec._xadd(chain[j - 1], one, chain[j - 2], a, b4, p)
            steps[j] = (j - 1, 1, j - 2)
        for n in range(42, 250, 7):
            chain[n] = ec._xadd(chain[n - 7], chain[7], chain[n - 14], a, b4, p)
            steps[n] = (n - 7, 7, n - 14)
        for i, (aq, bq, q) in enumerate(models):
            ref = {1: (1, 1), 2: x_double((1, 1), aq, bq, q)}
            for n, (j, k, d) in steps.items():
                ref[n] = x_add(ref[j], ref[k], ref[d], aq, bq, q)
            for n, (X, Z) in chain.items():
                assert (int(X[i]), int(Z[i])) == ref[n], (q, n)
                LX, LZ = x_ladder(1, n, aq, bq, q)
                assert Z[i] != 0 and (LX * int(Z[i]) - int(X[i]) * LZ) % q == 0, (q, n)

    @staticmethod
    def group_of_x1(a, b, p):
        """#E(F_p) of whichever of y^2 = x^3 + a*x + b and its twist holds x = 1, by _char_sums."""
        ap = -ec._char_sums(WeierstrassCurve(0, 0, 0, a, b), [p])[0]
        return p + 1 - ap if pow(1 + a + b, (p - 1) // 2, p) == 1 else p + 1 + ap

    @staticmethod
    def verdicts(lanes, m):
        """_annihilators on the Hasse intervals of lanes of (a, b, p), one call."""
        a, b, p = (np.array(c, dtype=np.int64) for c in zip(*lanes))
        width = np.array([isqrt(4 * q) for _, _, q in lanes], dtype=np.int64)
        return ec._annihilators(a, b, p, p + 1 - width, 2 * width, m).tolist()

    def test_giant_difference_at_O_keeps_the_verdict(self):
        # m with 2m + 1 dividing the group order N makes N a giant step,
        # at O, and a difference for the step two later, which is then a
        # doubling.  The verdict is N wherever the point's order exceeds 2m
        # and has one multiple in the Hasse interval.
        cases = []
        for q in good_primes(C37, 1000, 3000):
            a, b = -27 * C37.c_invariants[0] % q, -54 * C37.c_invariants[1] % q
            N = self.group_of_x1(a, b, q)
            width = isqrt(4 * q)
            lo = q + 1 - width
            for m in range(2, 40):
                s = 2 * m + 1
                if N % s == 0 and 0 <= N // s - (lo + m) // s <= -(-2 * width // s) - 2:
                    order = min(d for d in range(1, N + 1)
                                if N % d == 0 and x_ladder(1, d, a, b, q)[1] == 0)
                    multiples = [n for n in range(lo, lo + 2 * width + 1) if n % order == 0]
                    one = order > 2 * m and len(multiples) == 1
                    cases.append(((a, b, q), m, N if one else 0))
                    break
        got = [self.verdicts([lane], m)[0] for lane, m, _ in cases]
        assert got == [want for _, _, want in cases]
        assert sum(map(bool, got)) >= 20

    def test_difference_at_x0_gives_no_verdict(self):
        # b = (1 - a)^2 / 8 puts 2P at x = 0.  With m = 3, 2P is the
        # difference of the baby step (m+1)P; with m = 2 and a giant step c
        # = N - 2, cP = -2P is the difference of the step two later.
        baby, giant = [], []
        for q in sieve_primes(3000)[100:]:
            for a in range(1, 4):
                b = (1 - a) ** 2 * pow(8, -1, q) % q
                if (4 * a**3 + 27 * b * b) % q == 0:
                    continue
                N, width = self.group_of_x1(a, b, q), isqrt(4 * q)
                lo = q + 1 - width
                baby.append((a, b, q))
                if (N - 2) % 5 == 0 and 0 <= (N - 2) // 5 - (lo + 2) // 5 <= -(-2 * width // 5) - 2:
                    giant.append((a, b, q))
        assert self.verdicts(baby, 3) == [0] * len(baby)
        assert self.verdicts(giant, 2) == [0] * len(giant)
        assert len(giant) >= 20

    @pytest.mark.parametrize("call", [1, 2], ids=["giant", "sign"])
    def test_ladder_lane_at_0_0_gives_no_verdict(self, call, monkeypatch):
        # _annihilators calls _ladder twice: for the giant steps [t]S and
        # [t+1]S, then for the sign of each match.  Forcing one lane of a
        # call to (0 : 0) leaves that lane with no verdict, and every other
        # lane with the character sum's.  m = 45 makes three giant steps,
        # so [t+1]S is no difference and only its own check catches it.
        c4, c6 = C37.c_invariants
        lanes = [(-27 * c4 % q, -54 * c6 % q, q) for q in good_primes(C37, 1000, 2000)]
        want = [self.group_of_x1(*lane) for lane in lanes]
        m = 45
        plain = self.verdicts(lanes, m)
        assert all(v in (0, n) for v, n in zip(plain, want)) and plain.count(0) < len(lanes) // 5
        target = next(q for v, (_, _, q) in zip(plain, lanes) if v)
        calls = []
        ladder = ec._ladder

        def forced(a, b, p, n):
            R0, R1 = ladder(a, b, p, n)
            calls.append(int((p == target).sum()))
            if len(calls) == call:
                for c in R0 if call == 2 else R1:
                    c[p == target] = 0
            return R0, R1

        monkeypatch.setattr(ec, "_ladder", forced)
        got = self.verdicts(lanes, m)
        assert len(calls) == 2 and calls[call - 1] > 0
        assert got == [0 if q == target else v for v, (_, _, q) in zip(plain, lanes)]

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
        # residues near 2^31 bring products near 2^62: each lane's (X : Z)
        # equals the ladder in Python ints, so no int64 product overflowed,
        # at n = p + 1 and at the order lanes' n = (p + 1)/q^i, for P1 and
        # for P2 (the model scaled by u = 2), all in one call; the verdicts
        # agree with ap_good (y^2 = x^3 + 25x has a_p = 0 at p = 3 mod 4)
        primes = [2147483647, 2147483629, 2147483587, 2147483579, 2147483549]
        lanes = [(q, (q + 1) // d, u) for q in primes for u in (1, 2)
                 for d in [1] + [r**i for r, e in factorize(q + 1) for i in range(1, e + 1)]]
        c4, c6 = curve.c_invariants
        p, n, _ = (np.array(c, dtype=np.int64) for c in zip(*lanes))
        a, b = (np.array([c * u**k % q for q, _, u in lanes], dtype=np.int64)
                for c, k in ((-27 * c4, 4), (-54 * c6, 6)))
        (X, Z), (X1, Z1) = ec._ladder(a, b, p, n)
        want = [x_ladder(1, int(k), int(aq), int(bq), int(q), bits=32)
                for q, k, aq, bq in zip(p, n, a, b)]
        assert list(zip(X.tolist(), Z.tolist())) == want
        # the other register holds [n + 1]P, in the same ladder's values
        want = [x_ladder(1, int(k) + 1, int(aq), int(bq), int(q), bits=32)
                for q, k, aq, bq in zip(p, n, a, b)]
        assert list(zip(X1.tolist(), Z1.tolist())) == want
        assert len(lanes) > 10 * len(primes)
        aps = {q: ap_good(curve, q) for q in primes}
        assert 0 in aps.values() or curve is C37
        assert ec._open_primes(curve, primes) == (
            [q for q in primes if aps[q]], [q for q in primes if aps[q] == 0]
        )

    def test_open_primes_with_nonzero_a_p_land_in_nonzero(self, monkeypatch):
        # x(P1) = 1 leaves open four primes of 37a1 to 14000 whose a_p is not
        # 0 (P1 has order dividing p + 1 there); the second point proves each
        # nonzero, the two orders prove every other open prime zero, and the
        # router gets only 2, 3 and the bad prime 37
        pt = prime_table(C37, 14000)
        exact = pt.table
        good = good_primes(C37, 5, 14000)
        nonzero, opened = ec._open_primes(C37, good)
        assert sorted(nonzero + opened) == good
        assert [(p, exact[p]) for p in opened if exact[p]] == [
            (101, 3), (1283, -36), (1301, 30), (10369, 38)
        ]
        assert sorted(p for p in good if exact[p] == 0) == [p for p in opened if not exact[p]]
        sent = []
        aps = ec._aps
        monkeypatch.setattr(ec, "_aps", lambda c, primes: sent.extend(primes) or aps(c, primes))
        scan = ec.scan_table(C37, 14000)
        assert sent == [2, 3, 37]
        assert {101, 1283, 1301, 10369} <= scan.nonzero
        assert scan.table == {p: exact[p] for p in scan.table}
        assert sorted(scan.table) == sorted([2, 3, 37] + [p for p in opened if not exact[p]])
        monkeypatch.setattr(vanish, "ZEROS_CAP", 14000)  # the whole list is compared
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


class TestSettle:
    """Two points' orders decide a_p at the primes the ladder leaves open."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.tuples(*[st.integers(-50, 50)] * 5))
    def test_random_minimal_curves_to_20000(self, a):
        try:
            curve = WeierstrassCurve(*a)
            curve.level
        except ValueError:
            assume(False)
        assume(curve.cm_discriminant is None)
        sieve = sieve_primes(20000)
        _, opened = ec._open_primes(curve, good_primes(curve, 5, 20000))
        zero, nonzero = ec._settle(curve, opened, sieve)
        assert set(zero).isdisjoint(nonzero) and set(zero) | set(nonzero) <= set(opened)
        exact = ec._aps(curve, opened)
        assert [p for p in zero if exact[p] != 0] == []
        assert [p for p in nonzero if exact[p] == 0] == []

    @pytest.mark.parametrize("p", [p for p in sieve_primes(31) if p >= 5])
    def test_orders_equal_the_group_law(self, p):
        # Every nonsingular y^2 = x^3 + a*x + b mod p where [p + 1]P1 = O.
        # P1 has x = 1, P2 has x = 1 on the model scaled by u = 2; the point
        # (r, r^2) of y^2 = X^3 + a*r^2*X + b*r^3, r = f(1), has P's order
        # (a 2-torsion point where r = 0).
        def order(a, b):
            r = (1 + a + b) % p
            return point_order((r, r * r % p), a * r * r % p, p) if r else 2

        lanes, want = [], []
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0 or (p + 1) % order(a, b):
                    continue
                second = order(16 * a % p, 64 * b % p)
                lanes.append((a, b))
                want.append((order(a, b), second if (p + 1) % second == 0 else 0))
        a, b = (np.array(c, dtype=np.int64) for c in zip(*lanes))
        spf = smallest_prime_factors((p + 1) // 2, sieve_primes(p))
        orders = ec._orders(a, b, np.full_like(a, p), spf)
        assert list(zip(*orders.tolist())) == want
        # both points of order at least 2, and P2 sometimes not dividing p + 1
        assert min(min(w) for w in want) == 0 < min(w[0] for w in want)

    @pytest.mark.parametrize("curve", [C37, C53, C11], ids=["37a1", "53a1", "11a1"])
    def test_scan_to_14000_makes_no_lane_call(self, curve, monkeypatch):
        # every good prime p >= 5 is decided, so the router gets 2, 3 and
        # the bad prime, all by the character sum or the reduction type
        exact = prime_table(curve, 14000).table
        sent = []
        aps = ec._aps
        monkeypatch.setattr(ec, "_aps", lambda c, primes: sent.extend(primes) or aps(c, primes))
        monkeypatch.setattr(ec, "_lane_aps", None)
        scan = ec.scan_table(curve, 14000)
        assert sent == [2, 3, curve.level]
        assert scan.table == {p: exact[p] for p in scan.table}
        assert [p for p in scan.nonzero if exact[p] == 0] == []

    @pytest.mark.parametrize("stage", ["ladder", "orders"])
    def test_a_lane_at_0_0_sends_its_prime_to_the_router(self, stage, monkeypatch):
        # (0 : 0) never comes from x(P) = 1 on a nonsingular model, so it is
        # forced: on 37a1's lane at p + 1 for a prime the ladder proves
        # nonzero, or on one order lane of a prime the orders prove zero
        good = good_primes(C37, 5, 14000)
        nonzero, opened = ec._open_primes(C37, good)
        target = nonzero[10] if stage == "ladder" else opened[-1]
        ladder = ec._ladder

        def forced(a, b, p, n):
            (X, Z), R1 = ladder(a, b, p, n)
            hit = (p == target) & ((n == target + 1) if stage == "ladder" else (n < target + 1))
            first = hit.nonzero()[0][:1]
            X[first] = Z[first] = 0
            return (X, Z), R1

        sent = []
        aps = ec._aps
        monkeypatch.setattr(ec, "_ladder", forced)
        monkeypatch.setattr(ec, "_aps", lambda c, primes: sent.extend(primes) or aps(c, primes))
        if stage == "ladder":
            assert target not in sum(ec._open_primes(C37, good), [])
        scan = ec.scan_table(C37, 14000)
        assert sent == [2, 3, 37, target]
        assert target not in scan.nonzero
        assert scan.table[target] == prime_table(C37, 14000).table[target]


class TestDeuring:
    """CM curves: a_p = 0 exactly when (D / p) = -1, with no point counted."""

    @staticmethod
    def curve_with_j(j):
        return WeierstrassCurve(0, 0, 0, 3 * j * (1728 - j), 2 * j * (1728 - j) ** 2)

    def test_discriminant_of_each_rational_cm_j_invariant(self):
        curves = {
            d: self.curve_with_j(j) for j, d in ec.CM_J_INVARIANTS.items() if j not in (0, 1728)
        }
        curves[-3] = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
        curves[-4] = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x
        assert len(curves) == 13
        for d, curve in curves.items():
            assert curve.cm_discriminant == d
            # the criterion holds for each table entry at its good primes to 1000
            primes = good_primes(curve, 5, 1000)
            zero, nonzero = ec._deuring(curve, primes)
            exact = ec._aps(curve, primes)
            assert sorted(zero + nonzero) == [p for p in primes if d % p]
            assert [p for p in zero if exact[p]] == [p for p in nonzero if not exact[p]] == []
        assert [c.cm_discriminant for c in CURVES] == [None, None, None, -3, -4]

    def test_residue_classes_equal_euler_criterion(self):
        # the table of each D's field against (D / p) = D^((p-1)/2) mod p,
        # at every prime 5 <= p < 10^5 that does not divide D
        primes = sieve_primes(10**5)[2:]
        for j, d in ec.CM_J_INVARIANTS.items():
            curve = self.curve_with_j(j) if j not in (0, 1728) else C27 if j == 0 else C_ADD
            assert curve.cm_discriminant == d
            zero, nonzero = ec._deuring(curve, primes)
            assert zero == [p for p in primes if d % p and pow(d, (p - 1) // 2, p) == p - 1], d
            assert nonzero == [p for p in primes if d % p and pow(d, (p - 1) // 2, p) == 1], d

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(d=st.integers(-10**6, 10**6).filter(bool), form=st.sampled_from(["x^3+d", "x^3+dx"]))
    def test_twists_equal_ap_good(self, d, form):
        curve = WeierstrassCurve(0, 0, 0, d if form == "x^3+dx" else 0, d if form == "x^3+d" else 0)
        assert curve.cm_discriminant == (-3 if form == "x^3+d" else -4)
        primes = good_primes(curve, 5, 2000)
        zero, nonzero = ec._deuring(curve, primes)
        assert sorted(zero + nonzero) == primes
        # ap_good(curve, p) is _aps(curve, [p])[p]; one call takes them all
        exact = ec._aps(curve, primes)
        assert sorted(zero) == [p for p in primes if exact[p] == 0]

    @pytest.mark.parametrize("curve", [C27, C_ADD], ids=["27a1", "25x"])
    def test_cm_scan_runs_no_ladder(self, curve, monkeypatch):
        # the exact table comes first: its baby-step giant-step lanes run the ladder
        exact = prime_table(curve, 20000)
        monkeypatch.setattr(ec, "_ladder", None)
        sent = []
        aps = ec._aps
        monkeypatch.setattr(ec, "_aps", lambda c, primes: sent.extend(primes) or aps(c, primes))
        scan = ec.scan_table(curve, 20000)
        # 2, 3 (which divide D) and the bad prime 5 of y^2 = x^3 + 25x
        assert sent == [2, 3] + ([5] if curve is C_ADD else [])
        assert scan.table == {p: a for p, a in exact.table.items() if p not in scan.nonzero}
        assert all(exact.table[p] for p in scan.nonzero)
        monkeypatch.setattr(vanish, "ZEROS_CAP", 20000)  # the whole list is compared
        report = prime_sieve(scan)
        assert report == prime_sieve(exact) and report.zeros_omitted == 0


class TestResidues:
    PRIMES = [5, 7, 11, 1009, 65537, 2147483587, 2147483629, 2147483647]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(c=st.one_of(st.integers(-2**64, 2**64), st.integers(-2**400, 2**400)))
    def test_equal_python_mod(self, c):
        p = np.array(self.PRIMES, dtype=np.int64)
        assert ec._residues(c, p).tolist() == [c % q for q in self.PRIMES]

    def test_edges(self):
        p = np.array(self.PRIMES, dtype=np.int64)
        for c in (0, 1, -1, 2**31 - 1, 2**31, 2**62, -(2**62), 2**63 - 1, -(2**63), 2**93 + 5):
            assert ec._residues(c, p).tolist() == [c % q for q in self.PRIMES], c


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


def table_digest(table):
    return hashlib.sha256("".join(f"{p} {a}\n" for p, a in sorted(table.items())).encode()).hexdigest()


# sha256 of "p a_p\n" over every prime of prime_table: the five curves to
# 200000, then 25 random minimal curves (a_i in [-30, 30], the first 25
# minimal ones that random.Random(31) draws) to 30000.  Recorded from the
# baby-step giant-step of projective points that came before the x-only
# lanes; the tests above sample primes, and only whole tables caught a lane
# that read a giant step at O as a baby-step match.
WHOLE_TABLES = {
    "37a1": (200000, "a68e421fa7cc1cf0aa60a4512bd085273d75510d6fbdb15d23de150ca3647637"),
    "53a1": (200000, "587ef268342b293dc00d0f865920a729e45d5cb55ee450f207bb5ea643635a2d"),
    "11a1": (200000, "777f75b4eb447914024ff66cbdf321c5c904ab37e48188c94a36d20074b2c4bd"),
    "27a1": (200000, "904a8f77ef64ffdb4bbbe35942af7cbb1a3e9aa6745944827d69b587a7bd2682"),
    "additive-5": (200000, "39be807b1b89f054dd186a344d86f89075f9ce964324f5d4b3a4d2ce28490043"),
    "-30,0,-23,18,-5": (30000, "6c9986f78e6356cd657c766eec62c078634b9976181ccc5e46bb4f73a4b044e6"),
    "-21,13,-28,-22,30": (30000, "082cb42147e491ee73cc2aa461b7cc79f550b5dd6c26bb67bd575c4d1dbf5392"),
    "-23,4,-16,15,18": (30000, "787f080a8873698ac7e97860b4b774fef4653158ce3f6a7443eed90ec40f640d"),
    "-22,-21,17,-28,12": (30000, "77e21eec04f38e08e008ec05b2768ec954096c3e4330bbd6325d6d84a58f8070"),
    "-27,-22,-16,4,16": (30000, "b60fb444a0d9211050f6df410823e8598969f46d6ebf83fa4218f6fcd6f3b7bd"),
    "-2,3,-4,-17,7": (30000, "8f20a6571cc0d48d2d5d9727f3d7bda3d97d5c601eb27e079fae0cae31e9394a"),
    "-25,-23,-29,19,30": (30000, "e90e76c93b4d3ee604ad9b1b72ecf1579999fde85a7f3913098500ecaac66be1"),
    "26,-5,-9,-18,-17": (30000, "38cb198404bb6fc4ed80f8934bc795a72db7fd11e16cba7658423c26ad04ab23"),
    "-9,-5,-7,8,-15": (30000, "e1ce259b3d42c7201d87bd08a89dd38706b0aa09b5f1f3ede4a1c66b7cbcae38"),
    "-17,16,-17,-4,7": (30000, "62dd88deadf334257962412b62792243c0ed42f8ddef1178e6cec8231cdc0722"),
    "12,5,-27,-27,23": (30000, "1cbdb9043e9a9510f91916eac61eeabdfe702f8bfaa8b00cfbab4aae0a87e0fe"),
    "-19,-8,-22,-17,-21": (30000, "9734d2707413b80f5cd9846abb805e3ef2086cc257db755ae01e3cbeb96b41e9"),
    "23,20,-6,-29,-25": (30000, "f3cfeaad1bdd3a1ef63b0745a91e5752863bb52f757d29d13c110cdddf632e19"),
    "17,3,25,-2,11": (30000, "508dac2c78aadb037178b759121861f22cd522d63566414f7f49905b46f98e60"),
    "21,-17,-17,20,-3": (30000, "fac852d00d96489d4bbae915cd60eb16bc2be7dee23e88cfb583fb5443089c8e"),
    "16,-7,-18,-9,11": (30000, "2dcea6991a7af01767771640046821a98fd484967e78137169b3c12a1ced0012"),
    "22,-16,0,-28,-14": (30000, "c27f08162738d6e0f151036911f33af361e0f9081211a3cdefa362662394f162"),
    "-9,-12,-9,6,-5": (30000, "6d86d24266e5ce58f96556780ae0e6193f394cc4c2d84be191b14dbd0657682e"),
    "0,11,11,23,-10": (30000, "2acdb7b4317fc6e51a810909860424fbdc67fb736ffaa2654810b4dff8f4c15e"),
    "-17,17,-24,20,19": (30000, "efd32df0503a89994b781d89218e8697ff2c1e9b683b95adfe9e6c63b2eeec5b"),
    "-11,27,-19,5,9": (30000, "c9cc8f199557fc2e7348353692dc44d767b28668e18a737786a6c22717701e1c"),
    "29,4,23,13,-12": (30000, "207a72b9f06f550a4601292b1254cc8417155d3959456fff15fb8223a1c3de23"),
    "-25,-19,-18,-29,28": (30000, "ea1d2271680ebae26c89cd4ba5996c53fcb3cd9210dd20ab450c71f4b085eff6"),
    "20,8,-7,14,-24": (30000, "d95e18ca2aaf8dee6d8af2b0457f0c4bac7c3cb625372bce6f3123a2fda04053"),
    "12,-5,-12,28,-11": (30000, "56af88d71ef06412f613dcdf991379c565eeb2383e4ab965780f0d4d2a6ebbdd"),
}


class TestWholeTables:
    def test_tables_equal_their_digests(self):
        models = {c.label: c for c in CURVES}
        got = {
            name: (bound, table_digest(prime_table(models.get(name) or parse_curve(name), bound).table))
            for name, (bound, _) in WHOLE_TABLES.items()
        }
        assert got == WHOLE_TABLES


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
