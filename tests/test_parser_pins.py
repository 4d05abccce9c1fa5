"""The command line reads and prints exactly what argparse alone made of it.

cli reads a command line spelled as documented from its option table
(cli._read) and leaves every other spelling, help, usage and every error to
argparse.  tests/parser_pins.json holds, for each command line here, the exit
code, stdout and stderr that cli.main gave with COLUMNS=80 when argparse read
every command line: help, usage, argparse's own errors, the spellings only
argparse accepts, and the errors commands raise through the parser.  argparse
words and wraps these differently across Python versions, so the pins are
compared on the version that recorded them; on every version a property test
checks that whatever the reader accepts, argparse reads to the same namespace.
"""

import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvanish import cli

from .test_bench_references import WL

PINS = json.loads(pathlib.Path(__file__).with_name("parser_pins.json").read_text("utf-8"))
CASES = PINS["cases"]
IDS = [" ".join(case["argv"]) or "(none)" for case in CASES]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QVANISH_CACHE_DIR", str(tmp_path / "cache"))


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
    # cli.main, building argparse only for a line the reader declines, against argparse alone
    lazy = run(case["argv"], capsys, monkeypatch)
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert run(case["argv"], capsys, monkeypatch) == lazy


def test_benchmark_ops_build_no_parser(monkeypatch):
    def build_parser():
        raise AssertionError("argparse built")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    for op in WL.all_ops():
        assert cli.main(list(op)) == 0, WL.op_key(op)


README = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text("utf-8")
DOCUMENTED = [line.split("#")[0].split()[1:] for line in README.splitlines()
              if line.startswith("qvanish ")]


@pytest.mark.parametrize("argv", DOCUMENTED, ids=[" ".join(a) for a in DOCUMENTED])
def test_documented_lines_are_read(argv):
    # a value starting with '-' is argparse's to read (classify --ap -2)
    read = cli._read(argv)
    assert (read is None) == any(t.startswith("-") and not t.startswith("--") for t in argv)
    if read is not None:
        assert vars(read) == vars(cli.build_parser().parse_args(argv))


INTS = ["5", "13", "200001", "+5", " 7", "5_0", "0", "x", "-3", "", "9" * 5000]
TEXTS = ["0,0,1,-1,0", "-1,0,0,0,1", "f.qexp", "", "a b", "coeffs", "--form"]
STRAYS = [["--"], ["-h"], ["--help"], ["extra"], ["--mod", "7"], ["--limit", "5"], ["--bad"]]


def values(opt):
    if opt.value is int:
        return st.sampled_from(INTS)
    if opt.value is not None:
        return st.sampled_from([*opt.value, "Delta", "eta-quotient:7"])
    return st.sampled_from(TEXTS)


@st.composite
def spelled(draw, opt):
    """opt's tokens: mostly as documented, else abbreviated, with '=', or missing its value."""
    how = draw(st.sampled_from(["exact"] * 12 + ["abbreviated", "equals", "no value"]))
    flag = opt.flag
    if how == "abbreviated" and len(flag) > 3:
        flag = flag[: draw(st.integers(3, len(flag) - 1))]
    if opt.action == "store_true":
        return [f"{flag}=" if how == "equals" else flag]
    value = draw(values(opt))
    return {"equals": [f"{flag}={value}"], "no value": [flag]}.get(how, [flag, value])


@st.composite
def command_lines(draw):
    """A command's documented line, with a group missing or doubled, repeats, strays, shuffled."""
    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    _, _, *entries = cli.COMMANDS.get(name, ("", None))
    pieces = []
    for entry in entries:
        if isinstance(entry, list):  # one member of a required group, rarely none or two
            picked = draw(st.permutations(entry))[: draw(st.sampled_from([1] * 12 + [0, 2]))]
        else:
            picked = [entry] * draw(st.sampled_from([0, 1, 1, 1, 2]))
        pieces += [draw(spelled(opt)) for opt in picked]
    pieces += draw(st.sampled_from([[]] * 10 + [[stray] for stray in STRAYS]))
    if draw(st.booleans()):
        pieces = draw(st.permutations(pieces))
    return [name, *(token for piece in pieces for token in piece)]


PARSER = cli.build_parser()


@settings(derandomize=True, max_examples=500, deadline=None)
@given(command_lines())
def test_what_the_reader_accepts_argparse_reads_alike(argv):
    read = cli._read(argv)
    if read is not None:
        try:
            parsed = PARSER.parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse exits {exc.code} on {argv!r}, which the reader accepts")
        assert vars(read) == vars(parsed)
