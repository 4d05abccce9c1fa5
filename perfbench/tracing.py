"""Spans around calls into each qvanish layer, and the per-layer metrics.

Only the traced run uses this.  Wrapping happens inside the forked child of
one op, at the module or class attribute each function is looked up through
at call time, so untraced ops and the program's own source are untouched.
Names imported with `from .x import y` are wrapped in the importing module
(for example forms.mul_sparse_mod and hecke.factorize).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Span fields, as shipped from the child: name, start, end, parent, attr.
NAME, START, END, PARENT, ATTR = range(5)
BYTES_PER_LANE_OP = 24  # one int64 read of the segment, one read and one write of the accumulator


def _modulus(args, kwargs):
    # delta_eta_mod(bound, m) and eta_quotient_mod(level, bound, m)
    return args[-1]


def _lane_ops(args, kwargs):
    # mul_sparse_mod(a, s): one element op per term and per index it reaches.
    a, s = args[0], args[1]
    return sum(a.trunc_bound + 1 - idx for idx, _ in s.terms)


def _charsum_elems(args, kwargs):
    p = args[1]
    return p if p >= 5 else 0


def wrap_points():
    """(owner, attribute, span name, attribute function) for every wrapped call."""
    from qvanish import cli, ec, forms, hecke, vanish

    return (
        (cli, "main", "cli.main", None),
        (forms, "delta_eta_mod", "forms.lane_build", _modulus),
        (forms, "eta_quotient_mod", "forms.lane_build", _modulus),
        (forms, "delta_coefficient", "forms.exact_fallback", None),
        (forms, "eta_quotient_coefficient", "forms.exact_fallback", None),
        (forms, "delta_eta", "forms.exact_series", None),
        (forms, "eta_quotient", "forms.exact_series", None),
        (forms, "eisenstein_coeffs", "forms.exact_series", None),
        (forms, "ingest_qexp", "forms.parse", None),
        (forms, "export_qexp", "forms.export", None),
        (forms, "mul_sparse_mod", "series.mul_sparse_mod", _lane_ops),
        (forms, "mul_sparse", "series.mul_sparse", None),
        (vanish, "first_vanishing", "vanish.first_vanishing", None),
        (hecke.CoefficientOracle, "coeff", "hecke.coeff", None),
        (hecke, "qexp_from_primes", "hecke.qexp", None),
        (ec, "prime_table", "ec.prime_table", None),
        (ec, "ap_good", "ec.ap_good", _charsum_elems),
        (ec, "ap_bad", "ec.ap_bad", None),
        (hecke, "factorize", "arith.factorize", None),
        (ec, "sieve_primes", "arith.sieve", None),
        (hecke, "sieve_primes", "arith.sieve", None),
    )


class Tracer:
    """Keeps one span per wrapped call, in memory, for one op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for owner, attr, name, attr_fn in wrap_points():
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, attr_fn))

    def _wrap(self, fn, name, attr_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = attr_fn(args, kwargs) if attr_fn else 0
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attr]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced


class LayerTotals:
    """Calls, inclusive time, self time and attribute sums per span name."""

    def __init__(self, spans):
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attr = defaultdict(int)
        self.time_by_attr = defaultdict(float)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            name = s[NAME]
            self.calls[name] += 1
            self.time[name] += dur
            self.self_time[name] += dur - child_s[i]
            self.attr[name] += s[ATTR]
            self.time_by_attr[name, s[ATTR]] += dur


def layer_metrics(spans, lane_moduli, scans, cache) -> dict[str, float]:
    """Per-layer metrics of one pass.

    spans: every span of the pass's ops, parent fields indexing this list.
    scans: the scan outputs of the pass, parsed.  cache: (cacheable ops,
    new cache files, bytes of new cache files) over the pass's coeffs ops.
    """
    t = LayerTotals(spans)
    cacheable, writes, bytes_written = cache
    hits = t.calls["forms.parse"]
    indices = sum(s["bound"] for s in scans)
    residue = sum(s["certification"]["residue"] for s in scans)
    lane_ops = t.attr["series.mul_sparse_mod"]
    out = {
        f"forms.lane_build_s.lane{i}": t.time_by_attr["forms.lane_build", m]
        for i, m in enumerate(lane_moduli)
    }
    out.update(
        {
            "forms.lane_build_s": t.time["forms.lane_build"],
            "forms.lane_builds": t.calls["forms.lane_build"],
            "forms.exact_fallback_calls": t.calls["forms.exact_fallback"],
            "forms.exact_fallback_s": t.time["forms.exact_fallback"],
            "forms.exact_series_s": t.time["forms.exact_series"],
            "forms.parse_s": t.time["forms.parse"],
            "forms.export_s": t.time["forms.export"],
            "series.mul_sparse_mod_calls": t.calls["series.mul_sparse_mod"],
            "series.mul_sparse_mod_s": t.time["series.mul_sparse_mod"],
            "series.lane_ops_computed": lane_ops,
            "series.lane_bytes_computed": BYTES_PER_LANE_OP * lane_ops,
            "series.mul_sparse_calls": t.calls["series.mul_sparse"],
            "series.mul_sparse_s": t.time["series.mul_sparse"],
            "vanish.scan_self_s": t.self_time["vanish.first_vanishing"],
            "vanish.indices": indices,
            "vanish.residue_certified": residue,
            "vanish.exact_certified": sum(s["certification"]["exact"] for s in scans),
            "vanish.zeros": sum(s["certification"]["zero"] for s in scans),
            "vanish.residue_ratio": residue / indices if indices else 0.0,
            "hecke.coeff_calls": t.calls["hecke.coeff"],
            "hecke.coeff_self_s": t.self_time["hecke.coeff"],
            "hecke.qexp_s": t.time["hecke.qexp"],
            "ec.prime_table_s": t.time["ec.prime_table"],
            "ec.prime_tables": t.calls["ec.prime_table"],
            "ec.primes": t.calls["ec.ap_good"] + t.calls["ec.ap_bad"],
            "ec.ap_good_s": t.time["ec.ap_good"],
            "ec.ap_bad_s": t.time["ec.ap_bad"],
            "ec.charsum_elems_computed": t.attr["ec.ap_good"],
            "arith.factorize_calls": t.calls["arith.factorize"],
            "arith.factorize_s": t.time["arith.factorize"],
            "arith.sieve_s": t.time["arith.sieve"],
            "cli.cache_hits": hits,
            "cli.cache_writes": writes,
            "cli.cache_hit_ratio": hits / cacheable if cacheable else 0.0,
            "cli.cache_bytes_written": bytes_written,
            "cli.op_self_s": t.self_time["cli.main"],
            "trace.spans": len(spans),
        }
    )
    return out
