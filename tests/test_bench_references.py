"""Every benchmark op prints exactly its recorded reference, cold and warm.

perfbench/references.json holds the exit code and stdout sha256 of each op
the benchmark issues; a benchmark run counts a differing op as failed.  This
runs each op through cli.main in a fresh cache directory, first with the
cache empty and then with the entry the first run wrote.
"""

import importlib.util
import os
import sys

import pytest

from qvanish import cli

WORKLOADS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py"
)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WL = _workloads()
REFS = WL.load_references()
OPS = WL.all_ops()


@pytest.mark.parametrize("op", OPS, ids=[WL.op_key(op) for op in OPS])
def test_op_matches_reference(op, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("QVANISH_CACHE_DIR", str(tmp_path / "cache"))
    ref = REFS[WL.op_key(op)]
    for run in ("cold", "warm"):
        code = cli.main(list(op))
        out = capsys.readouterr().out.encode()
        assert (run, code, WL.digest(out)) == (run, ref["exit"], ref["sha256"])
