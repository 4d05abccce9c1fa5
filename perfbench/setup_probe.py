"""A run's set-up, on its own: import the CLI, make the inputs, empty the cache.

    python3 perfbench/setup_probe.py WORKLOAD SEED CACHE_DIR

prints "ready" when done.  run.py launches this in a fresh interpreter to time
setup_s, so it imports nothing beyond qvanish.cli and workloads.pass_ops.
"""

from __future__ import annotations

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(workload: str, seed: int, cache_dir: str):
    """What a run does before its first op; returns the cli module and the ops."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qvanish import cli

    from workloads import pass_ops

    ops = pass_ops(workload, seed)
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    os.environ["QVANISH_CACHE_DIR"] = cache_dir
    return cli, ops


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)
