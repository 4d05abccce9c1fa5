import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvanish import cli, ec, forms, hecke, vanish
from qvanish.cli import main
from qvanish.forms import delta_eta, eta_product_spec, export_qexp
from qvanish.series import LANE_PRIMES, QSeries


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QVANISH_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCoeffs:
    def test_fixture_37a1_known_values(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--fixture", "37a1", "--limit", "9")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        assert body == [
            "1 1", "2 -2", "3 -3", "4 2", "5 -2", "6 6", "7 -1", "8 0", "9 6",
        ]

    def test_delta_first_five(self, capsys):
        data = run_json(
            capsys, "coeffs", "--form", "delta", "--limit", "5", "--json"
        )
        assert data["coefficients"] == [
            [1, 1], [2, -24], [3, 252], [4, -1472], [5, 4830],
        ]

    def test_limit_zero_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--form", "delta", "--limit", "0"])
        assert exc.value.code == 2

    def test_unknown_selector(self, capsys):
        # argparse refuses a name outside its table as it parses
        for selector in (
            ("--form", "j-function"),
            ("--form", ""),
            ("--form", "eta-quotient:7"),
            ("--form", "eta-quotient:02"),
            ("--form", "eta-quotient: 2"),
            ("--fixture", "11a1"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["coeffs", *selector, "--limit", "5"])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert (out.out, "invalid choice" in out.err) == ("", True), selector

    @pytest.mark.parametrize("name", sorted(cli.NAMED_FORMS))
    def test_every_named_form_answers(self, capsys, name):
        code, out, err = run(capsys, "coeffs", "--form", name, "--limit", "3")
        assert (code, err) == (0, "")
        assert out

    def test_selector_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["coeffs", "--limit", "5"])
        with pytest.raises(SystemExit):
            main(["coeffs", "--form", "delta", "--fixture", "37a1", "--limit", "5"])

    def test_budget_gate(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--form", "delta", "--limit", "200001"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("form", ["delta", "eta-quotient:11"])
    def test_mod_lane_gate(self, capsys, monkeypatch, form):
        # lanes past the scan gate are refused before any pass runs
        monkeypatch.setattr(cli.forms, "eta_product", None)
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--form", form, "--limit", "200001", "--mod", "7"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"limit 200001 exceeds the compute budget ({cli.SCAN_GATE})" in err
        assert "--allow-large" in err

    def test_delta_past_the_lift_limit_refused(self, capsys, monkeypatch):
        # the exact series would need a sixth lift modulus: refused before any lane
        built = TestLaneCascade.count_lane_builds(monkeypatch)
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "coeffs", "--form", "delta", "--limit", "18675763", "--allow-large"
        )
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == "" and built == []
        assert "stop at bound 18675762" in err
        assert not os.path.exists(os.environ["QVANISH_CACHE_DIR"])

    def test_mod_output(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--form", "delta", "--limit", "5", "--mod", "691"
        )
        assert code == 0
        lines = out.splitlines()
        assert "# modulus: 691" in lines
        body = [line for line in lines if not line.startswith("#")]
        assert body == ["1 1", "2 667", "3 252", "4 601", "5 684"]

    @pytest.mark.parametrize("selector", [("--form", "delta"), ("--fixture", "37a1")])
    def test_repeated_mod_printed_once(self, capsys, selector):
        once = run(capsys, "coeffs", *selector, "--limit", "3", "--mod", "7", "--mod", "5")
        twice = run(
            capsys, "coeffs", *selector, "--limit", "3", "--mod", "7", "--mod", "5", "--mod", "7"
        )
        assert twice == once
        assert once[1].count("# modulus: 7") == 1
        assert once[1].index("# modulus: 7") < once[1].index("# modulus: 5")
        once_json = run(capsys, "coeffs", *selector, "--limit", "3", "--mod", "7", "--json")
        twice_json = run(
            capsys, "coeffs", *selector, "--limit", "3", "--mod", "7", "--mod", "7", "--json"
        )
        assert twice_json == once_json

    def test_mod_residues_match_exact(self, capsys, tmp_path):
        # every family's lanes print the residues of the coefficients coeffs gives
        path = tmp_path / "delta.qexp"
        path.write_text(export_qexp(eta_product_spec(1), delta_eta(40)))
        selectors = [
            *(("--form", name) for name in cli.NAMED_FORMS),
            ("--fixture", "37a1"),
            ("--fixture", "53a1"),
            ("--curve=-1,0,0,0,1",),
            ("--file", str(path)),
        ]
        for selector in selectors:
            argv = ("coeffs", *selector, "--limit", "40")
            exact = run_json(capsys, *argv, "--json")["coefficients"]
            data = run_json(capsys, *argv, "--mod", "998244353", "--mod", "691", "--json")
            assert sorted(data["residues"]) == ["691", "998244353"], selector
            for m, residues in data["residues"].items():
                assert residues == [[n, a % int(m)] for n, a in exact], (selector, m)

    def test_mod_builds_only_what_it_prints(self, capsys, monkeypatch):
        built = TestLaneCascade.count_lane_builds(monkeypatch)
        argv = ("coeffs", "--form", "eta-quotient:11", "--limit", "2000")
        code, out, err = run(capsys, *argv, "--mod", "7", "--mod", "5", "--mod", "7")
        assert code == 0, err
        assert built == [7, 5]  # no lift lane, no exact series
        tables = []
        real = ec.prime_table

        def prime_table(curve, bound):
            tables.append(bound)
            return real(curve, bound)

        monkeypatch.setattr(ec, "prime_table", prime_table)
        code, out, err = run(capsys, "coeffs", "--fixture", "37a1", "--limit", "500", "--mod", "7")
        assert code == 0, err
        assert tables == [500]

    def test_eta_quotient_and_curve_agree(self, capsys):
        via_name = run_json(
            capsys, "coeffs", "--form", "eta-quotient:11", "--limit", "20", "--json"
        )
        via_curve = run_json(
            capsys, "coeffs", "--curve", "0,-1,1,-10,-20", "--limit", "20", "--json"
        )
        assert via_name["coefficients"] == via_curve["coefficients"]

    def test_file_ingestion(self, capsys, tmp_path):
        path = tmp_path / "delta.qexp"
        path.write_text(export_qexp(eta_product_spec(1), delta_eta(12)))
        data = run_json(
            capsys, "coeffs", "--file", str(path), "--limit", "10", "--json"
        )
        assert data["coefficients"][1] == [2, -24]
        assert data["form"]["weight"] == 12

    def test_file_over_limit_errors(self, capsys, tmp_path):
        path = tmp_path / "short.qexp"
        path.write_text(export_qexp(eta_product_spec(1), delta_eta(5)))
        code, _, err = run(capsys, "coeffs", "--file", str(path), "--limit", "10")
        assert code == 2
        assert "below requested" in err


class Built(Exception):
    """Raised by a stubbed builder: the request got past every gate."""


class TestComputeGate:
    """One gate for every form: coeffs and scan above SCAN_GATE need --allow-large."""

    SELECTORS = {
        "delta": ("--form", "delta"),
        "eta-quotient:11": ("--form", "eta-quotient:11"),
        "e4": ("--form", "e4"),
        "37a1": ("--fixture", "37a1"),
        "file": ("--file",),
    }

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def stub(name):
            def build(*args, **kwargs):
                calls.append((name, *args))
                raise Built(name)

            return build

        for owner, attr in (
            (forms, "eta_product"),
            (forms, "eisenstein_coeffs"),
            (ec, "prime_table"),
            (forms, "ingest_qexp"),
        ):
            monkeypatch.setattr(owner, attr, stub(attr))
        return calls

    def selector(self, name, tmp_path):
        if name != "file":
            return self.SELECTORS[name]
        path = tmp_path / "delta.qexp"
        path.write_text(export_qexp(eta_product_spec(1), QSeries((0, 1, -24, 252))))
        return ("--file", str(path))

    @pytest.mark.parametrize("command", ["coeffs", "scan"])
    @pytest.mark.parametrize("name", sorted(SELECTORS))
    def test_above_the_gate_refused(self, capsys, tmp_path, builds, command, name):
        limit = str(cli.SCAN_GATE + 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *self.selector(name, tmp_path), "--limit", limit])
        assert exc.value.code == 2
        assert "--allow-large" in capsys.readouterr().err
        assert builds == []

    @pytest.mark.parametrize(
        "selector, limit, built",
        [
            # the first build a Delta miss reaches is its first lift lane
            (("--form", "delta"), 5001, ("eta_product", 1, 5001, LANE_PRIMES[0])),
            (("--fixture", "37a1"), 100001, ("prime_table", ec.FIXTURES["37a1"], 100001)),
        ],
    )
    def test_former_budgets_admitted(self, builds, selector, limit, built):
        # the coeffs budgets of 5000 (eta products) and 100000 (curves) are gone
        with pytest.raises(Built):
            main(["coeffs", *selector, "--limit", str(limit)])
        assert builds == [built]

    def test_allow_large_passes_the_gate(self, builds):
        with pytest.raises(Built):
            main(["coeffs", "--form", "e4", "--limit", str(cli.SCAN_GATE + 1), "--allow-large"])
        assert builds == [("eisenstein_coeffs", 2, cli.SCAN_GATE + 1)]

    @pytest.mark.parametrize("mod", ["3000000019", "9"])
    @pytest.mark.parametrize("name", sorted(SELECTORS))
    def test_bad_modulus_refused(self, capsys, tmp_path, builds, name, mod):
        # one rule for every form: an odd prime below 2^31 (3000000019 is prime)
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", *self.selector(name, tmp_path), "--limit", "5", "--mod", mod])
        assert exc.value.code == 2
        assert f"--mod {mod}: modulus must be an odd prime below 2^31" in capsys.readouterr().err
        assert builds == []

    @pytest.mark.parametrize("command", ["coeffs", "scan"])
    def test_refused_file_is_never_read(self, capsys, tmp_path, command):
        missing = tmp_path / "missing.qexp"
        with pytest.raises(SystemExit) as exc:
            main([command, "--file", str(missing), "--limit", str(cli.SCAN_GATE + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--allow-large" in err and "cannot ingest" not in err


class TestCache:
    def test_hit_matches_cold(self, capsys, tmp_path):
        args = ("coeffs", "--form", "delta", "--limit", "40")
        _, cold, _ = run(capsys, *args)
        cache_dir = os.environ["QVANISH_CACHE_DIR"]
        assert os.listdir(cache_dir)
        _, warm, _ = run(capsys, *args)
        assert warm == cold

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"ingest_qexp": 0, "export_qexp": 0}
        for name in calls:
            real = getattr(forms, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(forms, name, counted)
        return calls

    def test_delta_miss_builds_each_lift_lane_once(self, capsys, monkeypatch):
        # a miss lifts the series from the form's own lane cache, so each lift
        # lane is built once, to the limit, through eta_quotient_mod
        built, products = [], []
        real_mod, real_prod = forms.eta_quotient_mod, forms.eta_product
        monkeypatch.setattr(forms, "eta_quotient_mod", lambda *a: built.append(a) or real_mod(*a))
        monkeypatch.setattr(forms, "eta_product", lambda *a: products.append(a) or real_prod(*a))
        code, out, err = run(capsys, "coeffs", "--form", "delta", "--limit", "4000")
        assert code == 0, err
        assert forms._lift_moduli(12, 4000) == LANE_PRIMES
        assert built == [(1, 4000, m) for m in LANE_PRIMES]
        assert products == built

    def test_miss_exports_once_and_parses_nothing(self, capsys, monkeypatch):
        calls = self._count_calls(monkeypatch)
        code, out, _ = run(capsys, "coeffs", "--form", "delta", "--limit", "30")
        assert code == 0
        assert calls == {"ingest_qexp": 0, "export_qexp": 1}
        assert out == export_qexp(eta_product_spec(1), delta_eta(30))

    def test_text_hit_prints_the_verified_body(self, capsys, monkeypatch):
        args = ("coeffs", "--fixture", "37a1", "--limit", "30")
        _, cold, _ = run(capsys, *args)
        cache_dir = os.environ["QVANISH_CACHE_DIR"]
        (entry,) = os.listdir(cache_dir)
        with open(os.path.join(cache_dir, entry), "rb") as fh:
            fh.readline()  # the checksum line
            body = fh.read()
        calls = self._count_calls(monkeypatch)
        code, warm, _ = run(capsys, *args)
        assert code == 0
        assert calls == {"ingest_qexp": 1, "export_qexp": 0}
        assert warm.encode() == body
        assert warm == cold

    def test_json_hit_prints_the_cold_bytes(self, capsys, monkeypatch):
        args = ("coeffs", "--form", "eta-quotient:11", "--limit", "30", "--json")
        _, cold, _ = run(capsys, *args)
        calls = self._count_calls(monkeypatch)
        _, warm, _ = run(capsys, *args)
        assert calls == {"ingest_qexp": 1, "export_qexp": 0}
        assert warm == cold
        coeffs = forms.eta_quotient(11, 30).coeffs
        assert json.loads(warm)["coefficients"] == [[n, coeffs[n]] for n in range(1, 31)]

    def test_empty_location_is_the_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("QVANISH_CACHE_DIR", "")
        monkeypatch.setenv("HOME", str(tmp_path))
        code, out, err = run(capsys, "coeffs", "--form", "delta", "--limit", "5")
        assert (code, err) == (0, "")
        assert out == export_qexp(eta_product_spec(1), delta_eta(5))
        assert len(os.listdir(tmp_path / ".cache" / "qvanish")) == 1

    @pytest.mark.parametrize("where", ["file", "under-file", "rename-fails"])
    def test_unwritable_location_still_answers(self, capsys, monkeypatch, tmp_path, where):
        # a cache location that is a file, lies under a file, or takes no new
        # entry costs one warning line, never the answer or a stray .tmp file
        (tmp_path / "a-file").write_text("")
        location = {"file": "a-file", "under-file": "a-file/cache"}.get(where, "cache")
        monkeypatch.setenv("QVANISH_CACHE_DIR", str(tmp_path / location))
        if where == "rename-fails":
            def refuse(src, dst):
                raise PermissionError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run(capsys, "coeffs", "--form", "delta", "--limit", "5")
        assert code == 0
        assert out == export_qexp(eta_product_spec(1), delta_eta(5))
        assert err.startswith("warning: ") and err.count("\n") == 1
        left = [name for _, _, names in os.walk(tmp_path) for name in names]
        assert left == ["a-file"]

    def test_cache_payload_is_qexp_format(self, capsys):
        run(capsys, "coeffs", "--fixture", "37a1", "--limit", "9")
        cache_dir = os.environ["QVANISH_CACHE_DIR"]
        (entry,) = os.listdir(cache_dir)
        from qvanish.forms import ingest_qexp

        spec, qs = ingest_qexp(os.path.join(cache_dir, entry))
        assert spec.weight == 2 and spec.level == 37
        assert qs[8] == 0


def _keep_six_coefficients(good: bytes) -> bytes:
    return b"".join(good.splitlines(keepends=True)[:11])  # 5 headers, a(1..6)


def _delete_a7(good: bytes) -> bytes:
    lines = good.splitlines(keepends=True)
    assert lines[11] == b"7 -16744\n"
    return b"".join(lines[:11] + lines[12:])


CACHE_DAMAGE = {
    "truncated": _keep_six_coefficients,
    "flipped-digit": lambda good: good.replace(b"\n5 4830\n", b"\n5 4831\n"),
    "deleted-line": _delete_a7,
    "cut-in-last-line": lambda good: good[:-3],
    "empty": lambda good: b"",
    "garbage": lambda good: b"\x00\xff not a q-expansion\n",
    "other-label": lambda good: good.replace(b"# label: delta", b"# label: e4"),
}


class TestDamagedCache:
    @pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
    def test_recomputed_byte_identical(self, capsys, damage, json_out):
        args = ("coeffs", "--form", "delta", "--limit", "20")
        args += ("--json",) if json_out else ()
        code, cold, _ = run(capsys, *args)
        assert code == 0
        cache_dir = os.environ["QVANISH_CACHE_DIR"]
        (entry,) = os.listdir(cache_dir)
        path = os.path.join(cache_dir, entry)
        with open(path, "rb") as fh:
            good = fh.read()
        with open(path, "wb") as fh:
            fh.write(CACHE_DAMAGE[damage](good))
        code, warm, err = run(capsys, *args)
        assert (code, warm) == (0, cold), err
        assert os.listdir(cache_dir) == [entry]
        with open(path, "rb") as fh:
            assert fh.read() == good  # overwritten with a whole entry

    def test_entry_starts_with_checksum_of_body(self, capsys):
        run(capsys, "coeffs", "--form", "delta", "--limit", "20")
        cache_dir = os.environ["QVANISH_CACHE_DIR"]
        (entry,) = os.listdir(cache_dir)
        with open(os.path.join(cache_dir, entry), "rb") as fh:
            head, body = fh.readline(), fh.read()
        assert head == b"# sha256: " + hashlib.sha256(body).hexdigest().encode() + b"\n"
        assert body.startswith(b"# weight: 12\n")

    def test_format_version_is_in_the_key(self, capsys, monkeypatch):
        args = ("coeffs", "--form", "delta", "--limit", "20")
        _, cold, _ = run(capsys, *args)
        monkeypatch.setattr(cli, "CACHE_FORMAT", cli.CACHE_FORMAT + 1)
        _, again, _ = run(capsys, *args)
        assert again == cold
        assert len(os.listdir(os.environ["QVANISH_CACHE_DIR"])) == 2


NON_MINIMAL = ["0,0,8,-16,0", "0,0,0,-16,0"]  # 37a1 and 32a2 scaled by u = 2
MINIMAL = ["0,0,1,-1,0", "1,-1,1,0,0", "0,-1,1,-10,-20", "0,0,1,0,-7", "0,0,0,25,0"]
CURVE_COMMANDS = {
    "coeffs": ("--limit", "9"),
    "mf": (),
    "scan": ("--limit", "100"),
}


class TestRefusals:
    def test_failed_hasse_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(ec, "_char_sum", lambda curve, p: 3 * p)
        code, out, err = run(capsys, "coeffs", "--fixture", "37a1", "--limit", "9")
        assert (code, out) == (2, "")
        assert "Hasse bound" in err

    def test_unfactorable_discriminant_exits_2_quickly(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "mf", "--curve", "0,0,1,-1,100000000000000000000")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert "cannot factor" in err

    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    def test_non_ascii_curve_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--curve=٠,٠,١,-١,٠", *CURVE_COMMANDS[command]])
        assert exc.value.code == 2
        assert "curve coefficients must be ASCII" in capsys.readouterr().err


class TestOutOfMemory:
    @pytest.mark.parametrize("command, form", [("coeffs", "e4"), ("scan", "e6")])
    def test_exits_2_without_a_traceback(self, capsys, command, form):
        # the Eisenstein table of 10^15 + 1 entries exceeds any address space,
        # so its allocation fails at once and touches no page
        code, out, err = run(capsys, command, "--form", form, "--limit", str(10**15),
                             "--allow-large")
        assert (code, out) == (2, "")
        assert err == "error: not enough memory for this request\n"


class TestCurveLabel:
    SPACED = "--curve= 0,0,1,-1,0"

    def test_surrounding_whitespace_is_not_the_label(self, capsys):
        spaced = run(capsys, "coeffs", self.SPACED, "--limit", "5")
        plain = run(capsys, "coeffs", "--curve=0,0,1,-1,0", "--limit", "5")
        assert spaced == plain
        assert "# label: 0,0,1,-1,0\n" in plain[1]

    def test_spaced_curve_hits_the_cache(self, capsys, monkeypatch):
        args = ("coeffs", self.SPACED, "--limit", "5")
        _, cold, _ = run(capsys, *args)
        cache_dir = os.environ["QVANISH_CACHE_DIR"]
        (entry,) = os.listdir(cache_dir)
        path = os.path.join(cache_dir, entry)
        os.utime(path, ns=(10**9, 10**9))  # a rewrite would move the mtime
        parsed = []
        real = forms.ingest_qexp
        monkeypatch.setattr(forms, "ingest_qexp", lambda p: parsed.append(p) or real(p))
        code, warm, err = run(capsys, *args)
        assert (code, warm, err) == (0, cold, "")
        assert parsed == [path]
        assert os.stat(path).st_mtime_ns == 10**9

    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    def test_interior_newline_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--curve=0,0,1,\n-1,0", *CURVE_COMMANDS[command]])
        assert exc.value.code == 2
        assert "curve coefficients must be ASCII" in capsys.readouterr().err
        assert not os.path.exists(os.environ["QVANISH_CACHE_DIR"])

    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    def test_digit_separator_exits_2(self, capsys, command):
        # int() alone reads 0,0,1,-1_0,0 as the curve 0,0,1,-10,0
        with pytest.raises(SystemExit) as exc:
            main([command, "--curve=0,0,1,-1_0,0", *CURVE_COMMANDS[command]])
        assert exc.value.code == 2
        assert "without '_' separators" in capsys.readouterr().err
        assert not os.path.exists(os.environ["QVANISH_CACHE_DIR"])


class TestMinimality:
    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    @pytest.mark.parametrize("model", NON_MINIMAL)
    def test_non_minimal_model_exits_2(self, capsys, model, command):
        code, out, err = run(capsys, command, f"--curve={model}", *CURVE_COMMANDS[command])
        assert (code, out) == (2, "")
        assert "may not be minimal at p=2" in err
        assert not os.path.exists(os.environ["QVANISH_CACHE_DIR"])

    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    def test_non_minimal_model_counts_no_point(self, capsys, monkeypatch, command):
        # _aps is the only code that counts points, so no call means no point counted
        routed = []
        monkeypatch.setattr(ec, "_aps", lambda curve, primes: routed.append(primes))
        code, _, err = run(capsys, command, f"--curve={NON_MINIMAL[0]}", *CURVE_COMMANDS[command])
        assert (code, routed) == (2, [])
        assert "may not be minimal" in err

    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    @pytest.mark.parametrize("model", MINIMAL)
    def test_minimal_model_answers(self, capsys, model, command):
        code, out, err = run(capsys, command, f"--curve={model}", *CURVE_COMMANDS[command])
        assert (code, err) == (0, "")
        assert out


class TestOneBuildPerRequest:
    """A curve request builds one prime table and one series from it, cold or by --mod."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--fixture", "37a1", "--limit", "5000"),
            ("coeffs", "--fixture", "53a1", "--limit", "5000"),
            ("coeffs", "--fixture", "37a1", "--limit", "50", "--mod", "7"),
            ("mf", "--fixture", "37a1"),
        ],
        ids=["scan", "coeffs-cold", "coeffs-mod", "mf"],
    )
    def test_one_prime_table_and_one_series(self, capsys, monkeypatch, argv):
        built = []
        for owner, name in ((ec, "prime_table"), (hecke, "qexp_from_primes")):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, real=real, name=name: built.append(name) or real(*a)
            )
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert built == ["prime_table", "qexp_from_primes"]


class TestLevelOnce:
    @pytest.mark.parametrize("selector", ["--fixture=37a1", "--curve=0,0,1,-1,0"])
    @pytest.mark.parametrize(
        "argv", [("coeffs", "--limit", "100"), ("mf",), ("scan", "--limit", "100", "--coprime-mf")]
    )
    def test_discriminant_factorized_once(self, capsys, monkeypatch, argv, selector):
        # a fresh fixture object, so no earlier test has cached its level
        monkeypatch.setitem(ec.FIXTURES, "37a1", dataclasses.replace(ec.FIXTURES["37a1"]))
        factorized = []
        real = ec.factorize
        monkeypatch.setattr(ec, "factorize", lambda n: factorized.append(n) or real(n))
        code, _, err = run(capsys, argv[0], selector, *argv[1:])
        assert (code, err) == (0, "")
        assert len(factorized) == 1


class TestNoFactorizationPerIndex:
    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--fixture=37a1", "--limit", "5000", "--coprime-mf"),
            ("coeffs", "--fixture=53a1", "--limit", "5000"),
        ],
        ids=["scan-37a1", "coeffs-53a1"],
    )
    def test_only_the_discriminant_is_factorized(self, capsys, monkeypatch, argv):
        curve = dataclasses.replace(ec.FIXTURES[argv[1].split("=")[1]])
        monkeypatch.setitem(ec.FIXTURES, curve.label, curve)  # level not cached yet
        factorized = []
        for module in (ec, forms, hecke):
            real = module.factorize
            monkeypatch.setattr(
                module, "factorize", lambda n, real=real: factorized.append(n) or real(n)
            )
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out
        assert factorized == [abs(curve.discriminant)]


class TestEtaQuotientLift:
    def test_scan_builds_no_product_over_z(self, capsys, monkeypatch):
        # every all-lanes-zero index is lifted from the lanes, and the series
        # over Z, the source's series(), is never lifted
        bound = 20000
        exact_builds = []
        real = forms.eta_quotient
        monkeypatch.setattr(
            forms, "eta_quotient", lambda *args: exact_builds.append(args) or real(*args)
        )
        data = run_json(capsys, "scan", "--form", "eta-quotient:11", "--limit", str(bound))
        assert exact_builds == []
        monkeypatch.setattr(forms, "eta_quotient", real)

        report = vanish.first_vanishing(
            vanish.ScanSource.from_series(forms.eta_quotient(11, bound)), level=11
        )
        assert data["certification"] == report.certification
        assert sum(report.certification.values()) == bound
        assert data["zeros"] == report.zeros[: cli.ZEROS_CAP]
        assert data["zeros_omitted"] == len(report.zeros) - cli.ZEROS_CAP > 0
        fields = {k: v for k, v in vars(report).items() if k != "zeros"}
        assert {k: data[k] for k in fields} == json.loads(json.dumps(fields))


class TestLaneCascade:
    @staticmethod
    def count_lane_builds(monkeypatch):
        built = []
        real = forms.eta_product

        def eta_product(level, bound, modulus):
            built.append(modulus)
            return real(level, bound, modulus)

        monkeypatch.setattr(forms, "eta_product", eta_product)
        return built

    def test_delta_scan_builds_one_lane(self, capsys, monkeypatch):
        built = self.count_lane_builds(monkeypatch)
        data = run_json(capsys, "scan", "--form", "delta", "--limit", "5000")
        assert built == [LANE_PRIMES[0]]
        assert data["lane_moduli"] == list(LANE_PRIMES)
        assert data["certification"] == {"exact": 0, "residue": 5000, "zero": 0}

    def test_all_lanes_built_while_zeros_remain(self, capsys, monkeypatch):
        bound = 1300
        built = self.count_lane_builds(monkeypatch)
        data = run_json(capsys, "scan", "--form", "eta-quotient:11", "--limit", str(bound))
        assert built == list(LANE_PRIMES)

        # the eager reference: all three lanes, a residue in any one certifies
        monkeypatch.undo()
        exact = forms.eta_quotient(11, bound)
        lanes = [forms.eta_quotient_mod(11, bound, m) for m in LANE_PRIMES]
        residue = [n for n in range(1, bound + 1) if any(lane.coeffs[n] for lane in lanes)]
        zeros = [n for n in range(1, bound + 1) if exact[n] == 0]
        assert data["certification"] == {
            "exact": bound - len(residue) - len(zeros),
            "residue": len(residue),
            "zero": len(zeros),
        }
        assert data["zeros"] == zeros and len(zeros) == 195
        assert data["first_zero"] == 8
        assert data["lane_moduli"] == list(LANE_PRIMES)


class TestClassify:
    def test_periodic_four(self, capsys):
        data = run_json(capsys, "classify", "--p", "2", "--ap", "-2", "--k", "2")
        assert data["kind"] == "periodic"
        assert data["order"] == 4
        assert data["witness"] == 3
        assert data["zeros_sample"][:3] == [3, 7, 11]

    def test_periodic_six(self, capsys):
        data = run_json(capsys, "classify", "--p", "3", "--ap", "-3", "--k", "2")
        assert (data["kind"], data["order"], data["witness"]) == ("periodic", 6, 5)

    def test_ap_zero(self, capsys):
        data = run_json(capsys, "classify", "--p", "5", "--ap", "0", "--k", "2")
        assert data["kind"] == "ap_zero"
        assert data["witness"] == 1
        assert "order" not in data

    def test_odd_weight_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "2", "--ap", "1", "--k", "3"])
        assert exc.value.code == 2

    def test_bad_prime_flag(self, capsys):
        data = run_json(
            capsys, "classify", "--p", "37", "--ap", "0", "--k", "2", "--bad"
        )
        assert data["kind"] == "bad_prime"
        assert data["zeros_sample"] == list(range(1, 51))


class TestMf:
    def test_fixtures_and_delta(self, capsys):
        assert run_json(capsys, "mf", "--fixture", "37a1")["mf"] == 6
        assert run_json(capsys, "mf", "--fixture", "53a1")["mf"] == 3
        assert run_json(capsys, "mf", "--form", "delta")["mf"] == 1

    def test_reasons_structure(self, capsys):
        data = run_json(capsys, "mf", "--fixture", "53a1")
        assert data["kept"] == [3]
        assert data["reasons"]["2"]["ap"] == -1
        assert data["reasons"]["3"]["ap_is_critical"] is True

    def test_file_checked_to_its_last_index(self, capsys, tmp_path):
        # a(1..3) fit an eigenform, a(4) = 0 does not: a(2)^2 - 2 = -1
        path = tmp_path / "z4.qexp"
        path.write_text(
            "# weight: 2\n# level: 11\n# character: trivial\n# label: z4\n"
            "1 1\n2 1\n3 1\n4 0\n5 1\n"
        )
        for argv in (("mf",), ("scan", "--limit", "5", "--coprime-mf")):
            code, out, err = run(capsys, *argv, "--file", str(path))
            assert (code, out) == (2, "")
            assert "a(4) = 0" in err

    def test_negative_a1_needs_the_equals_spelling(self, capsys):
        assert run_json(capsys, "mf", "--curve=-1,0,0,0,1")["mf"] == 1
        for argv in (("mf",), ("scan", "--limit", "5")):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--curve", "-1,0,0,0,1"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "argument --curve: expected one argument" in err
            assert "--curve=-1,0,0,0,1" in err
        with pytest.raises(SystemExit):
            main(["mf", "--help"])
        assert "--curve=-1,0,0,0,1" in " ".join(capsys.readouterr().out.split())


class TestAnyWeight:
    """A huge weight is answered at once, never by building p^(k-1)."""

    def _run(self, tmp_path, *argv):
        src = os.path.dirname(os.path.dirname(vanish.__file__))
        env = dict(os.environ, PYTHONPATH=src, QVANISH_CACHE_DIR=str(tmp_path))
        return subprocess.run(
            [sys.executable, "-m", "qvanish", *argv],
            env=env, capture_output=True, text=True, timeout=5,
        )

    def test_classify(self, tmp_path):
        done = self._run(tmp_path, "classify", "--p", "3", "--ap", "1", "--k", "100000000")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"kind": "never_zero", "zeros_sample": []}

    def test_mf_file(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(
            "# weight: 100000000\n# level: 11\n# character: trivial\n"
            "1 1\n2 1\n3 1\n"
        )
        done = self._run(tmp_path, "mf", "--file", str(path))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["mf"] == 1

    @pytest.mark.parametrize(
        "weight, a2, limit",
        [(100000000, 0, 9), (20002, 0, 4), (20002, 10**3100, 4)],
        ids=["k=10^8", "k=20002", "k=20002,a2=10^3100"],
    )
    def test_non_eigenform_file_at_any_weight(self, tmp_path, weight, a2, limit):
        # a(4) = a(2)^2 - 2^(k-1) is refused, and never printed: with a(2) = 0 it
        # is never built either, and 10^6200 - 2^20001 has too many digits to print
        path = tmp_path / "zeros.txt"
        path.write_text(
            f"# weight: {weight}\n# level: 11\n# character: trivial\n1 1\n2 {a2}\n"
            + "".join(f"{n} 0\n" for n in range(3, limit + 1))
        )
        argv = ("scan", "--file", str(path), "--limit", str(limit), "--coprime-mf")
        done = self._run(tmp_path, *argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert "a(4) = 0" in done.stderr
        assert "Exceeds the limit" not in done.stderr


class TestMfNeedsAnEigenform:
    """M_f is a theorem for normalized eigenforms; any other form is refused (exit 2)."""

    Z4 = "# weight: 2\n# level: 11\n# character: trivial\n# label: z4\n1 1\n2 1\n3 1\n4 0\n5 1\n"

    @pytest.mark.parametrize(
        "argv, a1",
        [
            (("mf", "--form", "e4"), 240),
            (("mf", "--form", "e6"), -504),
            (("scan", "--form", "e4", "--limit", "5", "--coprime-mf"), 240),
        ],
    )
    def test_unnormalized_form_refused(self, capsys, argv, a1):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"a(1) = {a1}" in err

    def test_unnormalized_file_refused(self, capsys, tmp_path):
        path = tmp_path / "twice.qexp"
        path.write_text(export_qexp(eta_product_spec(1), QSeries((0, 2, -48, 504))))
        code, out, err = run(capsys, "mf", "--file", str(path))
        assert (code, out) == (2, "")
        assert "a(1) = 2" in err

    def test_non_eigenform_file_names_the_first_bad_index(self, capsys, tmp_path):
        # a(4) = 0, but a(2) = 1 at weight 2 gives a(4) = 1 - 2 = -1: the composite
        # zero coprime to M_f = 1 would have been reported as a guarantee violation
        path = tmp_path / "z4.qexp"
        path.write_text(self.Z4)
        code, out, err = run(capsys, "scan", "--file", str(path), "--limit", "5", "--coprime-mf")
        assert (code, out) == (2, "")
        assert "a(4) = 0" in err and "give -1" in err
        assert run_json(capsys, "scan", "--file", str(path), "--limit", "5")["zeros"] == [4]

    def test_eigenform_file_scans_like_its_curve(self, capsys, tmp_path):
        _, text, _ = run(capsys, "coeffs", "--fixture", "37a1", "--limit", "300")
        path = tmp_path / "37a1.qexp"
        path.write_text(text)
        argv = ("--limit", "300", "--coprime-mf")
        via_file = run_json(capsys, "scan", "--file", str(path), *argv)
        via_curve = run_json(capsys, "scan", "--fixture", "37a1", *argv)
        assert via_file.pop("form") != via_curve.pop("form")
        assert via_file["lane_moduli"] == list(LANE_PRIMES)
        keys = ("mf", "first_zero", "first_zero_coprime", "zeros")
        assert [via_file[k] for k in keys] == [via_curve[k] for k in keys]
        assert via_curve["first_zero_coprime"] == 17

    @pytest.mark.parametrize(
        "argv",
        [
            ("mf", "--form", "delta"),
            ("mf", "--fixture", "53a1"),
            ("scan", "--form", "eta-quotient:11", "--limit", "300", "--coprime-mf"),
            ("scan", "--curve", "0,0,0,25,0", "--limit", "30", "--coprime-mf"),
        ],
    )
    def test_newforms_skip_the_check(self, capsys, monkeypatch, argv):
        # the check builds a prime table from the series; eigenforms by construction never do
        monkeypatch.setattr(cli.hecke, "PrimeEigenvalues", None)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["mf"] in (1, 2, 3, 6)


class TestScan:
    def test_37a1_first_zero_eight(self, capsys):
        data = run_json(capsys, "scan", "--fixture", "37a1", "--limit", "100")
        assert data["first_zero"] == 8
        assert data["first_zero_is_prime"] is False

    def test_53a1_reports_243(self, capsys):
        data = run_json(capsys, "scan", "--fixture", "53a1", "--limit", "300")
        assert 243 in data["zeros"]

    def test_delta_residue_scan(self, capsys):
        data = run_json(capsys, "scan", "--form", "delta", "--limit", "2000")
        assert data["first_zero"] is None
        assert data["lane_moduli"] == [998244353, 1004535809, 2147483647]
        assert data["certification"]["residue"] == 2000

    def test_coprime_mf(self, capsys):
        data = run_json(
            capsys, "scan", "--fixture", "37a1", "--limit", "100", "--coprime-mf"
        )
        assert data["mf"] == 6
        assert data["first_zero_coprime"] == 17
        assert data["first_zero_coprime_is_prime"] is True

    def test_curve_at_limit_one(self, capsys):
        # the prime table to 1 is empty: a(1) = 1 needs no prime
        code, out, _ = run(capsys, "coeffs", "--fixture", "37a1", "--limit", "1")
        assert (code, out.splitlines()[-1]) == (0, "1 1")
        data = run_json(capsys, "scan", "--fixture", "37a1", "--limit", "1")
        assert (data["bound"], data["first_zero"]) == (1, None)
        assert data["certification"] == {"exact": 1, "residue": 0, "zero": 0}

    def test_limit_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--form", "delta"])
        assert exc.value.code == 2

    def test_full_lehmer_refuses_limit(self, capsys, monkeypatch):
        # --full-lehmer sets the limit itself: argparse keeps the two exclusive
        monkeypatch.setattr(cli.forms, "eta_product", None)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--form", "delta", "--full-lehmer", "--limit", "500"])
        assert exc.value.code == 2
        assert "--limit: not allowed with argument --full-lehmer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "selector", [("--form", "e4"), ("--form", "eta-quotient:11"), ("--fixture", "37a1")]
    )
    def test_full_lehmer_only_for_delta(self, capsys, monkeypatch, selector):
        monkeypatch.setattr(cli.forms, "eta_product", None)
        monkeypatch.setattr(cli.forms, "eisenstein_coeffs", None)
        monkeypatch.setattr(cli.ec, "prime_table", None)
        with pytest.raises(SystemExit) as exc:
            main(["scan", *selector, "--full-lehmer"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--full-lehmer scans tau to Lehmer's bound and needs --form delta" in err
        assert "--limit N --allow-large" in err

    def test_scan_gate(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--form", "delta", "--limit", "500000"])
        assert exc.value.code == 2

    def test_determinism(self, capsys):
        args = ("scan", "--fixture", "53a1", "--limit", "200", "--coprime-mf")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bad_prime_zero_flagged_for_additive_curve(self, capsys):
        data = run_json(
            capsys, "scan", "--curve", "0,0,0,25,0", "--limit", "30", "--coprime-mf"
        )
        assert data["first_zero"] == 2
        assert data["first_zero_divides_level"] is True
        assert data["first_zero_coprime_is_prime"] is True

    def test_json_keys_sorted(self, capsys):
        for args in (
            ("scan", "--fixture", "37a1", "--limit", "20"),
            ("classify", "--p", "2", "--ap", "-2", "--k", "2"),
            ("mf", "--form", "delta"),
        ):
            code, out, _ = run(capsys, *args)
            assert code == 0
            data = json.loads(out)
            assert list(data) == sorted(data)


def run_quietly(*argv):
    """main's exit code and stdout; parser.error's SystemExit is its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class TestRandomCurves:
    """A scan's zeros are the zeros coeffs prints, for any curve, or both refuse."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(*[st.integers(-12, 12)] * 5))
    def test_scan_agrees_with_coeffs(self, a):
        curve = "--curve=" + ",".join(map(str, a))
        scan_code, scan_out = run_quietly("scan", curve, "--limit", "300")
        coeffs_code, coeffs_out = run_quietly("coeffs", curve, "--limit", "300", "--json")
        assert scan_code == coeffs_code in (0, 2)
        if scan_code == 2:
            assert scan_out == coeffs_out == ""
            return
        scan = json.loads(scan_out)
        coeffs = json.loads(coeffs_out)["coefficients"]
        assert scan["zeros"] == [n for n, value in coeffs if value == 0]
        assert sum(scan["certification"].values()) == 300


class TestEisensteinOutput:
    def test_e4_text_notes_constant_term(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--form", "e4", "--limit", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# constant-term: 1"
        assert "1 240" in lines
        assert "3 6720" in lines

    def test_e6_scan_never_vanishes(self, capsys):
        data = run_json(capsys, "scan", "--form", "e6", "--limit", "500")
        assert data["first_zero"] is None
