"""Whole requests through cli.main, generated: every one exits 0 or 2 and says only what it can back.

Each example is one command line with its own cache directory: a command, a
form (named, fixture, random curve or a generated file, valid or damaged),
a limit at the gate's edges and --mod at moduli the lanes take and refuse.
It runs cold, then again after its cache entries are damaged or left whole.
"""

import contextlib
import io
import json
import os
import tempfile
from math import gcd, isqrt
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvanish import cli, ec
from qvanish.arith import sieve_primes
from qvanish.cli import main

# --mod values: not odd primes (2, 4, 9), an odd prime, the largest prime
# below 2^31 and the least above it
MODULI = [2, 4, 9, 691, 2**31 - 1, 2**31 + 11]
LIMITS = st.one_of(st.sampled_from([0, 1, cli.SCAN_GATE + 1]), st.integers(2, 60))

# a(1..60) of 11a1, the newform of the eta quotient of level 11
A11 = ec.prime_table(ec.WeierstrassCurve(0, -1, 1, -10, -20), 60).series.coeffs[1:]


def _line(text, n, new):
    """text with the line of a(n) replaced by new (dropped if None); files have 4 header lines."""
    lines = text.split("\n")
    lines[3 + n : 4 + n] = [] if new is None else [new]
    return "\n".join(lines)


# damage to a q-expansion file's text
FILE_DAMAGE = {
    "whole": lambda text: text,
    "gap": lambda text: _line(text, 2, None),
    "not-an-integer": lambda text: _line(text, 1, "1 1.5"),
    "huge-value": lambda text: _line(text, 1, "1 " + "9" * 5000),
    "odd-weight": lambda text: text.replace("# weight: 2", "# weight: 3"),
    "character": lambda text: text.replace("trivial", "quadratic"),
    "no-header": lambda text: text.split("# label: file\n")[1],
    "cut-in-last-line": lambda text: text[:-2],
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "non-ascii": lambda text: text.replace("# label: file", "# label: filé"),
    "empty": lambda text: "",
}
# damage to a cache entry's bytes
CACHE_DAMAGE = {
    "whole": lambda data: data,
    "truncated": lambda data: data[: len(data) // 2],
    "flipped-byte": lambda data: data[:-2] + bytes([data[-2] ^ 1]) + data[-1:],
    "empty": lambda data: b"",
    "garbage": lambda data: b"\x00\xff not a q-expansion\n",
}


def qexp_text(coeffs):
    lines = ["# weight: 2", "# level: 11", "# character: trivial", "# label: file"]
    return "\n".join(lines + [f"{n} {a}" for n, a in enumerate(coeffs, 1)]) + "\n"


@st.composite
def selectors(draw):
    """(argv of the form, whether it is a newform by construction, file text or None)."""
    kind = draw(st.sampled_from(["form", "fixture", "curve", "file"]))
    if kind == "form":
        name = draw(st.sampled_from(sorted(cli.NAMED_FORMS)))
        return ["--form", name], name not in ("e4", "e6"), None
    if kind == "fixture":
        return ["--fixture", draw(st.sampled_from(sorted(ec.FIXTURES)))], True, None
    if kind == "curve":
        a = draw(st.tuples(*[st.integers(-30, 30)] * 5))
        text = ",".join(map(str, a))
        # a value starting with '-' needs the --curve= spelling
        return ([f"--curve={text}"] if a[0] < 0 else ["--curve", text]), True, None
    coeffs = draw(st.one_of(
        st.sampled_from([A11, A11[:6]]), st.lists(st.integers(-50, 50), min_size=1, max_size=60)
    ))
    # half the files whole
    damage = draw(st.one_of(st.just("whole"), st.sampled_from(sorted(FILE_DAMAGE))))
    return ["--file"], False, FILE_DAMAGE[damage](qexp_text(coeffs))


@st.composite
def requests(draw):
    """(command, form argv, the rest of argv, newform, file text, cache damage)."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    damage = draw(st.sampled_from(sorted(CACHE_DAMAGE)))
    if command == "classify":
        argv = ["--p", str(draw(st.sampled_from([2, 3, 4, 7, 691]))),
                "--ap", str(draw(st.integers(-40, 40))),
                "--k", str(draw(st.sampled_from([0, 2, 3, 4, 12])))]
        return command, [], argv + (["--bad"] if draw(st.booleans()) else []), False, None, damage
    form, newform, text = draw(selectors())
    argv = []
    if command != "mf":
        argv += ["--limit", str(draw(LIMITS))]
    if command == "coeffs":
        argv += [arg for m in draw(st.lists(st.sampled_from(MODULI), max_size=2))
                 for arg in ("--mod", str(m))]
        argv += ["--json"] if draw(st.booleans()) else []
    if command == "scan" and draw(st.booleans()):
        argv += ["--coprime-mf"]
    return command, form, argv, newform, text, damage


def run(argv):
    """(exit code, stdout, stderr) of main; parser.error's SystemExit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_hecke(coefficients, form):
    """a(1) = 1, a(mn) = a(m)a(n) for coprime m, n, and at each prime p
    a(p^(r+1)) = a(p)a(p^r) - p^(k-1) a(p^(r-1)), without the second term where p | level."""
    a = dict(coefficients)
    bound = len(a)
    assert a[1] == 1
    for m in range(2, bound + 1):
        for n in range(m + 1, bound // m + 1):
            if gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n], (m, n)
    for p in sieve_primes(isqrt(bound)):
        step = p ** (form["weight"] - 1) if form["level"] % p else 0
        q = p
        while q * p <= bound:
            assert a[q * p] == a[p] * a[q] - step * a[q // p], (p, q)
            q *= p


class TestWholeRequests:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(requests())
    # 37a1 and 32a2 scaled by u = 2, which may not be minimal; a singular model
    @example(("scan", ["--curve", "0,0,8,-16,0"], ["--limit", "60"], True, None, "whole"))
    @example(("mf", ["--curve", "0,0,0,-16,0"], [], True, None, "whole"))
    @example(("coeffs", ["--curve", "0,0,0,0,0"], ["--limit", "5"], True, None, "whole"))
    # the CM curve, whose open primes take the exact route
    @example(("scan", ["--curve", "0,0,0,25,0"], ["--limit", "60", "--coprime-mf"], True, None,
              "whole"))
    @example(("coeffs", ["--form", "delta"],
              ["--limit", "60", "--mod", str(2**31 - 1), "--mod", "691", "--json"], True, None,
              "garbage"))
    @example(("coeffs", ["--fixture", "53a1"], ["--limit", "60", "--json"], True, None,
              "flipped-byte"))
    @example(("scan", ["--fixture", "37a1"], ["--limit", str(cli.SCAN_GATE + 1)], True, None,
              "whole"))
    def test_exit_0_or_2_and_backed_output(self, request):
        command, form, rest, newform, text, damage = request
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {cli.CACHE_ENV: os.path.join(tmp, "cache")}):
            if text is not None:
                form = [*form, os.path.join(tmp, "form.qexp")]
                with open(form[-1], "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            argv = [command, *form, *rest]
            code, out, err = run(argv)
            assert code in (0, 2), (argv, err)
            assert "Traceback" not in err
            assert code == 0 or out == "", argv
            cache = os.path.join(tmp, "cache")
            for entry in os.listdir(cache) if os.path.isdir(cache) else ():
                with open(os.path.join(cache, entry), "rb") as fh:
                    data = fh.read()
                with open(os.path.join(cache, entry), "wb") as fh:
                    fh.write(CACHE_DAMAGE[damage](data))
            assert run(argv)[:2] == (code, out), (argv, damage)
            if code != 0:
                return
            if newform and command == "coeffs" and "--json" in rest and "--mod" not in rest:
                report = json.loads(out)
                check_hecke(report["coefficients"], report["form"])
            if command == "scan":
                limit = rest[rest.index("--limit") + 1]
                coeffs_code, coeffs_out, _ = run(["coeffs", *form, "--limit", limit, "--json"])
                assert coeffs_code == 0
                coefficients = json.loads(coeffs_out)["coefficients"]
                assert json.loads(out)["zeros"] == [n for n, v in coefficients if v == 0]
