"""The argparse surface prints exactly what it printed when every command's parser was built up front.

cli builds a command's parser only when that command is dispatched
(cli._Commands).  tests/parser_pins.json holds, for each command line here,
the exit code, stdout and stderr that cli.main gave with COLUMNS=80 when
build_parser still built all four parsers at once: help, usage and argparse's
own errors.  argparse words and wraps these differently across Python
versions, so the pins are compared on the version that recorded them; on
every version the lazy parser is compared with the same commands built
eagerly by argparse's own subparsers action.
"""

import argparse
import json
import pathlib
import sys

import pytest

from qvanish import cli

PINS = json.loads(pathlib.Path(__file__).with_name("parser_pins.json").read_text("utf-8"))
CASES = PINS["cases"]
IDS = [" ".join(case["argv"]) or "(none)" for case in CASES]


class _EagerCommands(argparse._SubParsersAction):
    """argparse's own action: each command's parser built as it is registered."""

    def add_parser(self, name, *, build, help):
        build(super().add_parser(name, help=help))


def run(argv, capsys, monkeypatch) -> dict:
    monkeypatch.setenv("COLUMNS", str(PINS["columns"]))
    monkeypatch.delenv("LINES", raising=False)
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != PINS["python"],
    reason=f"argparse output pinned with Python {PINS['python']}",
)
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_matches_the_pin(case, capsys, monkeypatch):
    assert run(case["argv"], capsys, monkeypatch) == case


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_lazy_equals_eager(case, capsys, monkeypatch):
    lazy = run(case["argv"], capsys, monkeypatch)
    monkeypatch.setattr(cli, "_Commands", _EagerCommands)
    assert run(case["argv"], capsys, monkeypatch) == lazy


def test_only_the_dispatched_command_is_built(monkeypatch):
    built = []
    real = cli._coeffs_args
    monkeypatch.setattr(cli, "_coeffs_args", lambda sub: built.append(sub.prog) or real(sub))
    for name in ("_classify_args", "_mf_args", "_scan_args"):
        monkeypatch.setattr(cli, name, lambda sub: built.append(sub.prog))
    args = cli.build_parser().parse_args(["coeffs", "--form", "delta", "--limit", "5"])
    assert (built, args.func, args.limit) == (["qvanish coeffs"], cli.cmd_coeffs, 5)
