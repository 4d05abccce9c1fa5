"""Edge requests print exactly their pinned stdout, cold and warm.

tests/stdout_pins.json holds the q-expansion files that --file requests read
("files") and, for each command line, its exit code and the sha256 of its
stdout ("pins").  Each line runs through cli.main in process, in a fresh
cache directory, first with the cache empty and then with what the first run
wrote.  A refusal exits through parser.error (SystemExit) or returns 2; its
stdout is pinned all the same.  Stderr is not pinned: only the wording of a
refusal may change.

To print the pins of a checkout as JSON, from the root of the checkout:

    PYTHONPATH=src python -m tests.test_stdout_pins > pins.json
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from qvanish import cli

PINS_PATH = pathlib.Path(__file__).with_name("stdout_pins.json")
PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


def run_line(argv, files_dir) -> tuple[int, str]:
    """(exit code, stdout sha256) of one command line; {files} names files_dir."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([arg.format(files=files_dir) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_files(files_dir) -> None:
    for name, text in PINS["files"].items():
        pathlib.Path(files_dir, name).write_text(text, encoding="ascii")


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("qexp")
    write_files(path)
    return path


@pytest.mark.parametrize("pin", PINS["pins"], ids=[" ".join(p["argv"]) for p in PINS["pins"]])
def test_stdout_matches_pin(pin, files_dir, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    for run in ("cold", "warm"):
        code, digest = run_line(pin["argv"], files_dir)
        assert (run, code, digest) == (run, pin["exit"], pin["sha256"])


def record() -> dict:
    """The pins of the imported qvanish; a line whose warm run differs is an error."""
    pins = []
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        for i, pin in enumerate(PINS["pins"]):
            os.environ[cli.CACHE_ENV] = os.path.join(tmp, f"cache{i}")
            cold, warm = run_line(pin["argv"], tmp), run_line(pin["argv"], tmp)
            if cold != warm:
                raise RuntimeError(f"{pin['argv']}: cold {cold} but warm {warm}")
            pins.append({**pin, "exit": cold[0], "sha256": cold[1]})
    return {"files": PINS["files"], "pins": pins}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    print()
