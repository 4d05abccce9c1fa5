"""Record the reference exit code and stdout digest of every benchmark op.

    python3 perfbench/record_refs.py

Runs each distinct op once, the way the benchmark does, and rewrites
references.json.  Only re-record when an output is meant to change; the
benchmark counts any op whose output differs from its reference as failed.
"""

from __future__ import annotations

import json
import os
import shutil

from run import OUT_DIR, run_op
from setup_probe import setup
from workloads import REFERENCES, all_ops, digest, op_key


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_dir = os.path.join(OUT_DIR, f"record-{os.getpid()}")
    try:
        cli, _ = setup("coeffs_cache", 0, cache_dir)
        refs = {}
        for op in all_ops():
            # twice: a cacheable op misses, then hits; both must print the same
            first, second = (run_op(cli, op, traced=False) for _ in range(2))
            if (first.code, first.out) != (second.code, second.out):
                raise SystemExit(f"{op_key(op)}: output changed between runs")
            refs[op_key(op)] = {"exit": first.code, "sha256": digest(first.out),
                                "bytes": len(first.out)}
            print(f"{first.code} {len(first.out):>8} {op_key(op)}", flush=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
