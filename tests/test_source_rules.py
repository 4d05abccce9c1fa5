"""Rules the package source keeps: no assert guards a result, and the test
oracles import nothing from it.

The assert rule is checked twice: statically on the syntax tree, and at run time by
running checks that guard results under python -O, which strips asserts.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qvanish"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a check that guards a result
    # must raise explicitly instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"{path.name}: assert statements at lines {found}"


def test_oracles_import_nothing_from_the_package():
    # tests/oracles.py checks the package, so it must not run the package's code
    path = pathlib.Path(__file__).resolve().parent / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module))
    assert [(line, name) for line, name in found if name.split(".")[0] == "qvanish"] == []


# Exits 0 only if asserts are stripped and the M_f guarantee still raises.
GUARANTEE_UNDER_O = """
import sys
from qvanish import cli, ec, vanish
if sys.flags.optimize < 1:
    sys.exit("asserts are not stripped")
try:
    cli._curve_form(ec.FIXTURES["37a1"]).scan(100, 5)
except vanish.GuaranteeViolationError:
    sys.exit(0)
sys.exit("a composite zero coprime to coprime_to was reported quietly")
"""


class TestChecksWithAssertsStripped:
    @pytest.fixture
    def optimized(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC.parent), QVANISH_CACHE_DIR=str(tmp_path))

        def run(*args):
            return subprocess.run(
                [sys.executable, "-O", *args], env=env, capture_output=True, text=True, timeout=60
            )

        return run

    def test_guarantee_violation_raises(self, optimized):
        done = optimized("-c", GUARANTEE_UNDER_O)
        assert done.returncode == 0, done.stderr

    def test_damaged_checksum_line_recomputed(self, optimized, tmp_path):
        argv = ("-m", "qvanish", "coeffs", "--form", "delta", "--limit", "20")
        cold = optimized(*argv)
        assert cold.returncode == 0, cold.stderr
        (entry,) = tmp_path.iterdir()
        good = entry.read_bytes()
        head, _, body = good.partition(b"\n")
        entry.write_bytes(head[:-1] + (b"0" if head[-1:] != b"0" else b"1") + b"\n" + body)
        warm = optimized(*argv)
        assert (warm.returncode, warm.stdout) == (0, cold.stdout), warm.stderr
        assert entry.read_bytes() == good

    def test_delta_past_the_lift_limit_exits_2(self, optimized):
        done = optimized(
            "-m", "qvanish", "coeffs", "--form", "delta", "--limit", "18675763", "--allow-large"
        )
        assert done.returncode == 2 and done.stdout == ""
        assert "stop at bound 18675762" in done.stderr
