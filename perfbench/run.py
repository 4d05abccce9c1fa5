"""Benchmark of the qvanish command line on one workload.

    python3 perfbench/run.py --workload tau_lanes --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports qvanish from src/.

Load model: one process, closed loop, one client, one op at a time, no worker
threads.  An op is one qvanish command line, run through cli.main(argv) in a
child forked from a parent that has already imported qvanish, as a user runs
each command in a fresh process: no in-process state carries from one op to
the next, only the on-disk cache does.  Every op's exit code and stdout are
checked against references.json and, for scans, against known facts.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a run whose passes alternate untraced and
traced.  The last line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the run record and every
metric by name with its unit; the full result and, for a traced run, every
span go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import json
import marshal
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from setup_probe import setup
from tracing import ATTR, END, NAME, PARENT, START, Tracer, layer_metrics
from workloads import (
    ANCHOR_OP,
    WORKLOADS,
    is_cacheable,
    load_references,
    op_key,
    verify,
    verify_anchor,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
STDOUT_FILE = os.path.join(OUT_DIR, f"stdout-{os.getpid()}")
SETUP_PROBES = 15
MIN_PASSES = 4
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it
PROBE_TIMEOUT_S = 60
# Successive passes run on successive CPUs: other tenants of a shared host slow
# one CPU at a time, and the best of the passes then finds the quieter one.
CPUS = sorted(os.sched_getaffinity(0))

LOAD_MODEL = (
    "one process, closed loop, one client, one op at a time, no worker threads; "
    "each op runs in a child forked from a parent that imported qvanish"
)


# ------------------------------------------------------------------ one op

@dataclass
class OpResult:
    code: int
    out: bytes
    latency_s: float
    maxrss_kb: int
    spans: list | None


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks)


def _child(cli, op, cpu: int, out_fd: int, report_fd: int, traced: bool) -> None:
    code = 1
    try:
        os.sched_setaffinity(0, {cpu})
        os.dup2(out_fd, 1)
        os.close(out_fd)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        latency = time.perf_counter() - t0
        data = marshal.dumps((latency, tracer.spans if tracer else None))
        while data:
            data = data[os.write(report_fd, data):]
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        os._exit(code)


def run_op(cli, op, traced: bool, cpu: int = CPUS[0]) -> OpResult:
    """Run one command line in a child forked onto the given CPU; wait for it.

    The latency is timed in the child, from calling cli.main to its output
    being flushed, so it leaves out the fork and the exit, which a user's
    process does not pay.  The child writes its output to a file, as in
    `qvanish coeffs ... > out.txt`: through a pipe, a child printing more
    than the pipe holds would wait on the parent to drain it, and its
    latency would include how soon a loaded host wakes the parent.
    """
    out_fd = os.open(STDOUT_FILE, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)
    report_r, report_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(report_r)
        _child(cli, op, cpu, out_fd, report_w, traced)
    os.close(report_w)
    report = _read_all(report_r)
    _, status, usage = os.wait4(pid, 0)
    os.lseek(out_fd, 0, os.SEEK_SET)
    out = _read_all(out_fd)
    # a child that died before reporting is timed from outside; its exit
    # code already marks the op as failed
    latency, spans = marshal.loads(report) if report else (time.perf_counter() - t0, [])
    return OpResult(os.waitstatus_to_exitcode(status), out, latency, usage.ru_maxrss, spans)


# ------------------------------------------------------------------ set-up time

def probe_setup(workload: str, seed: int, k: int) -> float:
    """Seconds from launching a fresh interpreter until it has done setup().

    Probe k runs pinned to CPU k mod the CPUs available, as passes do.
    """
    cache_dir = os.path.join(OUT_DIR, f"probe-{os.getpid()}-{k}")
    cpu = CPUS[k % len(CPUS)]
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), cache_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# ------------------------------------------------------------------ run record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(*parts):
        with open(os.path.join(base, *parts), encoding="ascii") as fh:
            return fh.read().strip()

    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            if read(entry, "type") in ("Unified", "Data"):
                sizes[f"L{read(entry, 'level')}"] = read(entry, "size")
    except OSError:
        pass
    return sizes


def _git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_record(args, ops, passes, latency_samples, tail_pct) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seed_effect": (
            "orders the coeffs_cache requests"
            if args.workload == "coeffs_cache"
            else "none: the scan workloads have fixed inputs and ignore the seed"
        ),
        "trace": args.trace,
        "seconds": args.seconds,
        "ops_per_pass": len(ops),
        "passes": passes,
        "latency_samples": latency_samples,
        "op_tail_percentile": tail_pct,
        "setup_s_samples": "none: a traced run reports no setup_s" if args.trace
        else f"fastest of {SETUP_PROBES} launches",
        "load_model": LOAD_MODEL,
        "nproc": os.cpu_count(),
        "cpus_used": CPUS,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


# ------------------------------------------------------------------ measuring

def tail(values):
    """(value, label) of the highest percentile with TAIL_BEYOND values beyond it.

    With TAIL_BEYOND values or fewer no such percentile exists, and the tail
    is the largest value.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], "max"
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], f"p{100 * (k + 1) / len(ordered):.4g}"


def _cache_files(cache_dir: str) -> dict[str, int]:
    return {
        e.name: e.stat().st_size
        for e in os.scandir(cache_dir)
        if e.name.endswith(".qexp")
    }


@dataclass
class Pass:
    traced: bool
    wall_s: float
    latencies: list
    wrote: list  # whether each op left a new file in the cache directory
    maxrss_kb: int
    failures: list
    layers: dict | None = None


def run_pass(cli, wl, ops, refs, cache_dir, traced, op_base, span_log, lane_moduli, cpu) -> Pass:
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    latencies, wrote, failures, spans, scans = [], [], [], [], []
    log_base = len(span_log)
    maxrss = 0
    writes = bytes_written = 0
    after = {}
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        before = after
        res = run_op(cli, op, traced, cpu)
        errors = verify(op, res.code, res.out, refs.get(op_key(op)), wl.facts.get(op))
        latencies.append(res.latency_s)
        maxrss = max(maxrss, res.maxrss_kb)
        if errors:
            failures.append({"op": op_key(op), "errors": errors})
        after = _cache_files(cache_dir)
        new = set(after) - set(before)
        wrote.append(bool(new))
        if traced:
            writes += len(new)
            bytes_written += sum(after[name] for name in new)
            if op[0] == "scan" and not errors:
                scans.append(json.loads(res.out))
            base = len(spans)
            for s in res.spans:
                if s[PARENT] >= 0:
                    s[PARENT] += base
                spans.append(s)
                span_log.append((op_base + i, s, log_base))
    wall = time.perf_counter() - t0
    p = Pass(traced, wall, latencies, wrote, maxrss, failures)
    if traced:
        cacheable = sum(map(is_cacheable, ops))
        p.layers = layer_metrics(spans, lane_moduli, scans, (cacheable, writes, bytes_written))
    return p


def op_latencies(ops, passes) -> tuple[list[float], list[int]]:
    """Each op's latency, and how many runs it is the fastest of.

    Ops that issue the same command and either both leave a new cache file
    or both leave none do the same work on the same cache state: a miss
    writes, a hit or an uncacheable request does not.  Op i is the fastest
    run of all such ops over all passes.  Pooling the runs of, say, the four
    e4 requests of a coeffs_cache pass gives their latency four times the
    samples of op i alone, and so a figure less moved by other tenants.
    """
    runs: dict = {}
    for p in passes:
        for op, wrote, latency in zip(ops, p.wrote, p.latencies):
            runs.setdefault((op, wrote), []).append(latency)
    best, counts = [], []
    for i, op in enumerate(ops):
        pooled = [t for key in {(op, p.wrote[i]) for p in passes} for t in runs[key]]
        best.append(min(pooled))
        counts.append(len(pooled))
    return best, counts


def coverage_errors(name: str, m: dict, cacheable: int) -> list[str]:
    """Each workload's dominant layer must have recorded spans.

    This catches a renamed or re-imported function that the wrappers no
    longer reach, which would otherwise zero its layer silently.
    """
    fallbacks_expected = m["vanish.exact_certified"] + m["vanish.zeros"]
    checks = {
        "tau_lanes": [
            ("lane builds recorded", m["forms.lane_builds"] > 0),
            ("lane products recorded", m["series.mul_sparse_mod_calls"] > 0),
            ("no exact fallback", m["forms.exact_fallback_calls"] == 0),
            ("fallbacks match all-lanes-zero indices",
             m["forms.exact_fallback_calls"] == fallbacks_expected),
        ],
        "eta_fallback": [
            ("exact fallbacks recorded", m["forms.exact_fallback_calls"] > 0),
            ("fallbacks match all-lanes-zero indices",
             m["forms.exact_fallback_calls"] == fallbacks_expected),
        ],
        "curve_scan": [
            ("prime tables recorded", m["ec.prime_tables"] > 0),
            ("coefficient lookups recorded", m["hecke.coeff_calls"] > 0),
        ],
        "coeffs_cache": [
            ("cache hits recorded", m["cli.cache_hits"] > 0),
            ("cache writes recorded", m["cli.cache_writes"] > 0),
            ("hits + writes equal cacheable ops",
             m["cli.cache_hits"] + m["cli.cache_writes"] == cacheable),
        ],
    }[name]
    return [f"span coverage: {label} failed" for label, ok in checks if not ok]


def write_spans(path: str, span_log) -> None:
    """One JSON line per span; parent is the line number of the parent span."""
    with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
        for op, s, base in span_log:
            parent = s[PARENT] + base if s[PARENT] >= 0 else -1
            fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                 "parent": parent, "op": op, "attr": s[ATTR]}))
            fh.write("\n")


def measure(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_dir = os.path.join(OUT_DIR, f"cache-{os.getpid()}")
    try:
        cli, ops = setup(args.workload, args.seed, cache_dir)
        return _measure(args, wl, cli, ops, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if os.path.exists(STDOUT_FILE):
            os.unlink(STDOUT_FILE)


def _measure(args, wl, cli, ops, cache_dir) -> tuple[dict, dict]:
    from qvanish.series import LANE_PRIMES

    refs = load_references()
    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(ROOT, "tests", "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    problems = []
    attempted = failed = 0

    # Anchor: tau(1..200) from the CLI against the package-independent oracle.
    anchor = run_op(cli, ANCHOR_OP, traced=False)
    anchor_ref = refs.get(op_key(ANCHOR_OP))
    anchor_errors = verify(ANCHOR_OP, anchor.code, anchor.out, anchor_ref, None)
    anchor_errors += verify_anchor(anchor.out, oracles.tau_by_product(200))
    attempted += 1
    if anchor_errors:
        failed += 1
        problems.append({"op": op_key(ANCHOR_OP), "errors": anchor_errors})

    # Self-check: a deliberately wrong reference must count as a failure.
    self_check_ok = False
    if anchor_ref is not None:
        sha = anchor_ref["sha256"]
        wrong = dict(anchor_ref, sha256=("1" if sha[0] == "0" else "0") + sha[1:])
        self_check_ok = bool(verify(ANCHOR_OP, anchor.code, anchor.out, wrong, None))
    if not self_check_ok:
        problems.append({"op": "self-check", "errors": ["a wrong reference passed"]})

    # Set-up probes are spread over the run, between passes, so that a stretch
    # of load from other tenants slows only some of them; a traced run reports
    # no setup_s and makes none.
    setup_times = []
    probes = 0 if args.trace else SETUP_PROBES
    passes = []
    span_log: list = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        while (len(setup_times) < probes and time.perf_counter()
               >= start + len(setup_times) * args.seconds / probes):
            setup_times.append(probe_setup(args.workload, args.seed, len(setup_times)))
        traced = bool(args.trace) and len(passes) % 2 == 1
        # a traced run alternates kinds of pass, so it moves to the next CPU
        # every two passes and each kind runs on every CPU
        turn = len(passes) // 2 if args.trace else len(passes)
        passes.append(run_pass(cli, wl, ops, refs, cache_dir, traced, len(passes) * len(ops),
                               span_log, LANE_PRIMES, CPUS[turn % len(CPUS)]))
    while len(setup_times) < probes:
        setup_times.append(probe_setup(args.workload, args.seed, len(setup_times)))
    for p in passes:
        attempted += len(p.latencies)
        failed += len(p.failures)
        problems += p.failures

    plain = [p for p in passes if not p.traced]
    # Op i is the same command on the same cache state in every pass, so its
    # latency is the best of its runs: other tenants of a shared host slow
    # whole stretches of seconds, and the best of several runs is the figure
    # least moved by them.  wall_s is likewise the fastest pass.
    best, runs = op_latencies(ops, plain)
    tail_s, tail_pct = tail(best)
    samples = (f"{len(best)} ops, each the fastest of {min(runs)} to {max(runs)} runs "
               f"of the same command on the same cache state")
    record = run_record(args, ops, len(plain), samples, tail_pct)
    record["lane_moduli"] = list(LANE_PRIMES)
    record["pass_wall_s"] = [round(p.wall_s, 6) for p in passes]
    record["failed_frac"] = failed / attempted
    record["self_check"] = "ok" if self_check_ok else "failed"

    wall = min(p.wall_s for p in plain)
    if args.trace:
        traced = [p for p in passes if p.traced]
        layers = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in traced[0].layers
        }
        layers["trace.pass_wall_s"] = statistics.median(p.wall_s for p in traced)
        layers["trace.overhead_frac"] = min(p.wall_s for p in traced) / wall - 1
        cacheable = sum(map(is_cacheable, ops))
        problems += [{"op": "trace", "errors": [e]}
                     for e in coverage_errors(args.workload, layers, cacheable)]
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        write_spans(spans_path, span_log)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["traced_passes"] = len(traced)
        metrics = layers
    else:
        peak_kb = max(max(p.maxrss_kb for p in plain),
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "wall_s": wall,
            "op_p50_ms": 1000 * statistics.median(best),
            "op_tail_ms": 1000 * tail_s,
            "setup_s": min(setup_times),
            "peak_rss_mb": peak_kb / 1024,
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["problems"] = problems[:20]
    return record, result


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this mode, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/qvanish/cli.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a qvanish source checkout",
                  file=sys.stderr)
            return 2
    try:
        record, result = measure(args)
    except Exception:
        traceback.print_exc()
        return 1

    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="ascii") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
    print("# record " + json.dumps(record, sort_keys=True))
    print(f"failed_frac = {record['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    units = declared_units(args.trace)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
