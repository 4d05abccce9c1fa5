import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qvanish
from qvanish import ec
from qvanish.arith import sieve_primes
from qvanish.ec import (
    FIXTURES,
    WeierstrassCurve,
    ap_bad,
    ap_good,
    parse_curve,
    prime_table,
)
from qvanish.cli import main
from qvanish.hecke import qexp_from_primes

from .oracles import count_affine_points, count_nonsingular

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


class TestPrimeTable:
    def test_37a1_table_to_7(self):
        pt = prime_table(C37, 7)
        assert pt.table == {2: -2, 3: -3, 5: -2, 7: -1}

    def test_53a1_table_to_7(self):
        assert prime_table(C53, 7).table == {2: -1, 3: -3, 5: 0, 7: -4}

    def test_bound_two(self):
        assert len(prime_table(C37, 2).table) == 1

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
    """Baby-step giant-step against the character sum, the exact O(p) count."""

    @pytest.mark.parametrize("curve", CURVES, ids=CURVE_IDS)
    def test_equals_char_sum_to_20000(self, curve):
        primes = good_primes(curve, 5, 20000)
        unresolved = 0
        for p in primes:
            ap = ec._bsgs_ap(curve, p)
            if ap is None:
                unresolved += 1
            else:
                assert ap == -ec._char_sum(curve, p), (curve.label, p)
        # BSGS answers nearly everywhere, so the agreement is not vacuous.
        assert unresolved < len(primes) // 20

    @settings(max_examples=40, deadline=None)
    @given(a=st.tuples(*[st.integers(-30, 30)] * 5))
    def test_random_minimal_curves(self, a):
        try:
            curve = WeierstrassCurve(*a)
            curve.level
        except ValueError:
            assume(False)
        primes = good_primes(curve, ec.BSGS_CROSSOVER + 1, 3000)
        assert primes
        for p in primes:
            assert ap_good(curve, p) == -ec._char_sum(curve, p), (a, p)

    @pytest.mark.parametrize("p", [p for p in sieve_primes(60) if p >= 5])
    def test_annihilators_are_the_multiples_of_the_order(self, p):
        # Every affine point of y^2 = x^3 + a*x + b for a few (a, b) at small p,
        # where small orders and non-cyclic groups are common.
        width = 2 * int(p**0.5) + 1
        lo, hi = max(1, p + 1 - width), p + 1 + width
        for a, b in [(0, 1), (1, 0), (2, 3), (p - 1, 0), (3, 5)]:
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            points = [
                (x, y) for x in range(p) for y in range(p)
                if (y * y - x**3 - a * x - b) % p == 0
            ]
            for P in points:
                order, Q = 1, P
                while Q is not None:
                    Q = ec._add(Q, P, a, p)
                    order += 1
                expected = {n for n in range(lo, hi + 1) if n % order == 0}
                assert ec._annihilators(P, a, p, lo, hi) == expected, (a, b, P)

    def test_forced_fallback_gives_same_answers(self, monkeypatch):
        bound = 2 * ec.BSGS_CROSSOVER
        tables = {c.label: prime_table(c, bound).table for c in CURVES}
        calls = []
        char_sum = ec._char_sum

        def counted(curve, p):
            calls.append(p)
            return char_sum(curve, p)

        monkeypatch.setattr(ec, "BSGS_POINTS", 0)
        monkeypatch.setattr(ec, "_char_sum", counted)
        for c in CURVES:
            assert prime_table(c, bound).table == tables[c.label]
        # Every odd prime, good or bad, went by the character sum.
        assert len(calls) == len(CURVES) * (len(sieve_primes(bound)) - 1)

    def test_hasse_guard_above_crossover(self, monkeypatch):
        p = good_primes(C37, ec.BSGS_CROSSOVER + 1, 2 * ec.BSGS_CROSSOVER)[0]
        monkeypatch.setattr(ec, "_bsgs_ap", lambda curve, q: q)
        with pytest.raises(ValueError, match=f"Hasse bound violated at p={p}"):
            ap_good(C37, p)


class TestResultChecks:
    """The checks that guard a_p are exceptions, so python -O keeps them."""

    def test_hasse_violation_raises(self, monkeypatch):
        monkeypatch.setattr(ec, "_char_sum", lambda curve, p: 3 * p)
        with pytest.raises(ValueError, match="Hasse bound violated at p=5"):
            ap_good(C37, 5)

    def test_bad_prime_value_out_of_range_raises(self, monkeypatch):
        monkeypatch.setattr(ec, "_char_sum", lambda curve, p: -2)
        with pytest.raises(ValueError, match="outside"):
            ap_bad(C37, 37)

    def test_hasse_check_survives_python_O(self):
        script = (
            "from qvanish import ec\n"
            "assert False, 'asserts are live: not running under -O'\n"
            "ec._char_sum = lambda curve, p: 3 * p\n"
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
