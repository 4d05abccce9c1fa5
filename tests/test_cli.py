import dataclasses
import hashlib
import json
import os
import time

import pytest

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
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--form", "j-function", "--limit", "5"])
        assert exc.value.code == 2

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

    def test_mod_residues_match_exact(self, capsys):
        data = run_json(
            capsys, "coeffs", "--form", "delta", "--limit", "30",
            "--mod", "998244353", "--json",
        )
        exact = delta_eta(30)
        for n, r in data["residues"]["998244353"]:
            assert r == exact[n] % 998244353

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
            (cli, "_slice_series"),
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
            (("--form", "delta"), 5001, ("eta_product", 1, 5001)),
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
        coeffs = forms.eta_quotient(11, 30)[1].coeffs
        assert json.loads(warm)["coefficients"] == [[n, coeffs[n]] for n in range(1, 31)]

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
        counted = []
        monkeypatch.setattr(ec, "_ap", lambda curve, p: counted.append(p))
        code, _, err = run(capsys, command, f"--curve={NON_MINIMAL[0]}", *CURVE_COMMANDS[command])
        assert (code, counted) == (2, [])
        assert "may not be minimal" in err

    @pytest.mark.parametrize("command", sorted(CURVE_COMMANDS))
    @pytest.mark.parametrize("model", MINIMAL)
    def test_minimal_model_answers(self, capsys, model, command):
        code, out, err = run(capsys, command, f"--curve={model}", *CURVE_COMMANDS[command])
        assert (code, err) == (0, "")
        assert out


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
        # every all-lanes-zero index is lifted from the lanes, none rebuilt
        bound = 20000
        exact_builds = []
        real = forms.eta_product
        monkeypatch.setattr(
            forms,
            "eta_product",
            lambda level, b, modulus=None: (modulus is None and exact_builds.append(b))
            or real(level, b, modulus),
        )
        data = run_json(capsys, "scan", "--form", "eta-quotient:11", "--limit", str(bound))
        assert exact_builds == []
        monkeypatch.setattr(forms, "eta_product", real)

        report = vanish.first_vanishing(
            vanish.ScanSource.from_series(forms.eta_quotient(11, bound)[1]), bound, level=11
        )
        cert = report.certification
        assert data["certification"] == {
            "exact": cert.count(vanish.CERT_EXACT),
            "residue": cert.count(vanish.CERT_RESIDUE),
            "zero": cert.count(vanish.CERT_ZERO),
        }
        assert data["zeros"] == report.zeros[: cli.ZEROS_CAP]
        assert data["zeros_omitted"] == len(report.zeros) - cli.ZEROS_CAP > 0
        fields = {k: v for k, v in vars(report).items() if k not in ("certification", "zeros")}
        assert {k: data[k] for k in fields} == json.loads(json.dumps(fields))


class TestLaneCascade:
    @staticmethod
    def count_lane_builds(monkeypatch):
        built = []
        real = forms.eta_product

        def eta_product(level, bound, modulus=None):
            if modulus is not None:
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
        exact = forms.eta_quotient(11, bound)[1]
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

    def test_limit_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--form", "delta"])
        assert exc.value.code == 2

    def test_full_lehmer_refuses_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.forms, "eta_product", None)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--form", "delta", "--full-lehmer", "--limit", "500"])
        assert exc.value.code == 2
        assert f"--full-lehmer sets the limit to {cli.FULL_LEHMER_BOUND}" in capsys.readouterr().err

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
