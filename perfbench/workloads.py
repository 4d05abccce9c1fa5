"""The four benchmark workloads: their inputs, and how their outputs are checked.

An op is one qvanish command line.  Each workload is a fixed list of ops (a
"pass") that a run repeats.  Only coeffs_cache depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed_ops: tuple[tuple[str, ...], ...] = ()
    # Facts every output of an op must show, by argv; checked beside the digest.
    facts: dict = field(default_factory=dict)


SCAN_TAU = ("scan", "--form", "delta", "--limit", "70000")
SCAN_ETA = ("scan", "--form", "eta-quotient:11", "--limit", "1300")
SCAN_37A1 = ("scan", "--fixture", "37a1", "--limit", "14000", "--coprime-mf")
SCAN_53A1 = ("scan", "--fixture", "53a1", "--limit", "14000", "--coprime-mf")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tau_lanes",
            why="delta scan: residue-lane builds are nearly all of the time; "
            "no index reaches the exact fallback",
            fixed_ops=(SCAN_TAU,),
            facts={
                SCAN_TAU: {
                    "first_zero": None,
                    "certification": {"exact": 0, "residue": 70000, "zero": 0},
                    "lane_moduli": [998244353, 1004535809, 2147483647],
                }
            },
        ),
        Workload(
            name="eta_fallback",
            why="level-11 eta quotient scan: all-lanes-zero indices rebuild the "
            "exact product; lanes are cheap",
            fixed_ops=(SCAN_ETA,),
            facts={SCAN_ETA: {"first_zero": 8, "certification": {"zero": 195}}},
        ),
        Workload(
            name="curve_scan",
            why="37a1 and 53a1 scans: point counting for the prime table "
            "dominates; no lanes, M_f guarantee checked",
            fixed_ops=(SCAN_37A1, SCAN_53A1),
            facts={
                SCAN_37A1: {"first_zero": 8, "first_zero_coprime": 17, "lane_moduli": []},
                SCAN_53A1: {"first_zero": 5, "first_zero_coprime": 5, "lane_moduli": []},
            },
        ),
        Workload(
            name="coeffs_cache",
            why="100 coeffs requests from an empty cache: few misses build and "
            "write exact series, most hits parse and re-serialize",
        ),
    )
}

# coeffs_cache keys by popularity rank; e4 and e6 are never cached.
CACHE_KEYS = (
    ("--form", "delta", "--limit", "2000"),
    ("--form", "delta", "--limit", "4000"),
    ("--form", "eta-quotient:11", "--limit", "2000"),
    ("--form", "eta-quotient:11", "--limit", "4000"),
    ("--form", "eta-quotient:5", "--limit", "4000"),
    ("--fixture", "37a1", "--limit", "10000"),
    ("--fixture", "37a1", "--limit", "20000"),
    ("--fixture", "53a1", "--limit", "20000"),
    ("--form", "e4", "--limit", "20000"),
    ("--form", "e6", "--limit", "20000"),
)
UNCACHEABLE = {"e4", "e6"}
CACHE_OPS = 100

ANCHOR_OP = ("coeffs", "--form", "delta", "--limit", "200")


def zipf_counts(n_keys: int, total: int) -> list[int]:
    """Split total ops over keys in proportion to 1/rank, by largest remainder."""
    weights = [1 / r for r in range(1, n_keys + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(n_keys), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def coeffs_op(key) -> tuple[str, ...]:
    return ("coeffs",) + key + ("--allow-large",)


def is_cacheable(op) -> bool:
    return op[0] == "coeffs" and op[2] not in UNCACHEABLE


def pass_ops(name: str, seed: int) -> list[tuple[str, ...]]:
    """The ops of one pass.

    coeffs_cache: the per-key counts follow 1/rank exactly and the seed only
    orders them.  Independent weighted draws change which heavy keys appear,
    which moved wall_s by tens of percent between seeds; a fixed multiset keeps
    the work of every seed equal while the order, and so which request of each
    key is the miss, still changes.  The scan workloads ignore the seed.
    """
    wl = WORKLOADS[name]
    if wl.fixed_ops:
        return list(wl.fixed_ops)
    ops = [
        coeffs_op(key)
        for key, count in zip(CACHE_KEYS, zipf_counts(len(CACHE_KEYS), CACHE_OPS))
        for _ in range(count)
    ]
    random.Random(seed).shuffle(ops)
    return ops


def all_ops() -> list[tuple[str, ...]]:
    """Every distinct op any seed of any workload can issue, plus the anchor."""
    ops = [op for wl in WORKLOADS.values() for op in wl.fixed_ops]
    return ops + [coeffs_op(key) for key in CACHE_KEYS] + [ANCHOR_OP]


def op_key(op) -> str:
    return " ".join(op)


def load_references(path: str = REFERENCES) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def _fact_errors(expected: dict, got: dict, where: str) -> list[str]:
    errors = []
    for key, want in expected.items():
        have = got.get(key)
        if isinstance(want, dict) and isinstance(have, dict):
            errors += _fact_errors(want, have, f"{where}.{key}")
        elif have != want:
            errors.append(f"{where}.{key} is {have!r}, expected {want!r}")
    return errors


def verify(op, code: int, out: bytes, ref: dict | None, facts: dict | None) -> list[str]:
    """Everything wrong with one op's result; an empty list means it passed."""
    if ref is None:
        return [f"no reference for {op_key(op)!r}"]
    errors = []
    if code != ref["exit"]:
        errors.append(f"exit code {code}, expected {ref['exit']}")
    if digest(out) != ref["sha256"]:
        errors.append("stdout sha256 differs from the reference")
    if facts:
        try:
            got = json.loads(out)
        except ValueError:
            return errors + ["stdout is not JSON"]
        errors += _fact_errors(facts, got, "scan")
    return errors


def verify_anchor(out: bytes, tau: list[int]) -> list[str]:
    """Check coeffs text output against tau(1..len(tau)-1) from the oracle."""
    body = [
        line.split()
        for line in out.decode("ascii", "replace").splitlines()
        if line and not line.startswith("#")
    ]
    want = [[str(n), str(tau[n])] for n in range(1, len(tau))]
    if body != want:
        return ["tau(1..200) differs from tests/oracles.py:tau_by_product"]
    return []
