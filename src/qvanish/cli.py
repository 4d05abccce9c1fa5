"""Command-line surface: coeffs, classify, mf, scan.

Each form selector resolves to a ResolvedForm.  Delta and the eta quotients
are one kind, the eta product at level 1 or N, served at every level by
forms.eta_quotient, eta_quotient_mod and eta_quotient_coefficient.  coeffs
and scan share one compute gate: for every form, a limit above SCAN_GATE
needs --allow-large.

JSON output is key-sorted and timestamp-free, so identical invocations are
byte-identical.  Exit codes: 0 success, 2 usage or input errors, 3 when a
scan hit contradicts a proven guarantee (which would mean a bug here, not
new mathematics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Callable

from . import ec, forms, hecke, vanish
from .arith import is_prime
from .forms import FormSpec
from .series import LANE_PRIMES, QSeries

CACHE_ENV = "QVANISH_CACHE_DIR"
DEFAULT_CACHE = os.path.join("~", ".cache", "qvanish")
FULL_LEHMER_BOUND = 3316799  # smallest n with tau(n) = 0 exceeds this
# the one compute gate: coeffs and scan refuse a larger limit without --allow-large
SCAN_GATE = 200000
ZEROS_CAP = 1000
# Part of every cache key: bump it when the cached payload or the code that
# computes it changes, so entries written before are never read again.
CACHE_FORMAT = 2


@dataclass
class ResolvedForm:
    spec: FormSpec
    exact_series: Callable[[int], QSeries]
    # lane builder (bound, modulus) -> ResidueSeries, for forms built as a product
    residue_series: Callable[[int, int], object] | None = None
    # what a scan to a bound reads, when it is not the exact series
    scan_source: Callable[[int], vanish.ScanSource] | None = None
    cacheable: bool = False


def _eta_product_form(level: int) -> ResolvedForm:
    """Delta (level 1) or an eta quotient: residue lanes with an exact fallback.

    The scan builds each lane at most once, and only when it needs it.  Its
    exact callback lifts a(n) from the lanes that Deligne's bound asks for at
    n, read through the scan's own lane cache, which builds a lift modulus
    beyond the certifying ones (Delta above 28521) once, to the scan bound.
    An index reaches it only once every certifying lane is built.
    """
    lane = partial(forms.eta_quotient_mod, level)

    def scan_source(bound: int) -> vanish.ScanSource:
        lane_of = cache(partial(lane, bound))
        exact = partial(forms.eta_quotient_coefficient, level, lane_of=lane_of)
        return vanish.ScanSource(bound, exact, LANE_PRIMES, lane_of)

    return ResolvedForm(
        spec=forms.eta_product_spec(level),
        exact_series=lambda b: forms.eta_quotient(level, b)[1],
        residue_series=lane,
        scan_source=scan_source,
        cacheable=True,
    )


def _resolve_form(args, parser) -> ResolvedForm:
    chosen = [
        name
        for name in ("form", "curve", "fixture", "file")
        if getattr(args, name, None)
    ]
    if len(chosen) != 1:
        parser.error("select exactly one of --form / --curve / --fixture / --file")
    if args.form:
        name = args.form
        if name == "delta":
            return _eta_product_form(1)
        if name in ("e4", "e6"):
            half = 2 if name == "e4" else 3
            spec = FormSpec(
                weight=2 * half, level=1, label=name, source=f"eisenstein:{name}"
            )
            return ResolvedForm(
                spec=spec,
                exact_series=lambda b, h=half: forms.eisenstein_coeffs(h, b),
            )
        if name.startswith("eta-quotient:"):
            try:
                level = int(name.split(":", 1)[1])
            except ValueError:
                parser.error(f"bad eta quotient selector {name!r}")
            if level not in forms.ETA_QUOTIENT_LEVELS:
                parser.error(
                    f"eta quotient level must be one of {forms.ETA_QUOTIENT_LEVELS}"
                )
            return _eta_product_form(level)
        parser.error(f"unknown form selector {name!r}")
    if args.curve or args.fixture:
        if args.fixture:
            curve = ec.FIXTURES.get(args.fixture)
            if curve is None:
                parser.error(f"unknown fixture {args.fixture!r}; have {sorted(ec.FIXTURES)}")
        else:
            try:
                curve = ec.parse_curve(args.curve)
            except ValueError as exc:
                parser.error(str(exc))
        return ResolvedForm(
            spec=ec.curve_form(curve),
            exact_series=lambda b, c=curve: _curve_series(c, b),
            scan_source=lambda b, c=curve: _curve_source(c, b),
            cacheable=True,
        )
    try:
        spec, qs = forms.ingest_qexp(args.file)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot ingest {args.file}: {exc}")
    return ResolvedForm(
        spec=spec,
        exact_series=lambda b, q=qs: _slice_series(q, b, args.file),
    )


def _curve_series(curve, bound):
    return hecke.qexp_from_primes(ec.prime_table(curve, max(bound, 2)), bound)


def _curve_source(curve, bound) -> vanish.ScanSource:
    pe = ec.prime_table(curve, max(bound, 2))
    return vanish.ScanSource(pe.bound, hecke.CoefficientOracle(pe).coeff)


def _slice_series(qs: QSeries, bound: int, path) -> QSeries:
    if bound > qs.trunc_bound:
        raise ValueError(
            f"{path} covers n <= {qs.trunc_bound}, below requested {bound}"
        )
    return QSeries(qs.coeffs[: bound + 1])


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------- cache

def _cache_dir() -> str:
    return os.path.expanduser(os.environ.get(CACHE_ENV, DEFAULT_CACHE))


def _cache_key(spec: FormSpec, bound: int) -> str:
    ident = (
        f"format={CACHE_FORMAT}|{spec.source}|weight={spec.weight}"
        f"|level={spec.level}|bound={bound}"
    )
    return hashlib.sha256(ident.encode("ascii")).hexdigest()


def _checksum_line(body: bytes) -> bytes:
    return b"# sha256: " + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def _cache_hit(path: str, spec: FormSpec, bound: int) -> tuple[QSeries, str] | None:
    """The entry at path if it is whole and answers the request, else None.

    An entry is a '# sha256:' line over the body, then the body in the
    q-expansion format.  A damaged entry (missing, checksum mismatch,
    unparsable, or written for another form or bound) is not trusted; the
    caller recomputes and overwrites it.  A hit is the parsed series and the
    body it was checked against, which is what a cold run prints.
    """
    try:
        with open(path, "rb") as fh:
            head, body = fh.readline(), fh.read()
        if head != _checksum_line(body):
            return None
        got, qs = forms.ingest_qexp(path)
        text = body.decode("ascii")
    except (OSError, ValueError):
        return None
    want = (bound, spec.weight, spec.level, spec.label)
    if (qs.trunc_bound, got.weight, got.level, got.label) != want:
        return None
    return qs, text


def _cached_series(rf: ResolvedForm, bound: int) -> tuple[QSeries, str | None]:
    """The series to bound and, for a cacheable form, its q-expansion text.

    Cacheable forms are cusp forms, so the text is what coeffs prints.
    """
    if not rf.cacheable:
        return rf.exact_series(bound), None
    path = os.path.join(_cache_dir(), _cache_key(rf.spec, bound) + ".qexp")
    hit = _cache_hit(path, rf.spec, bound)
    if hit is not None:
        return hit
    qs = rf.exact_series(bound)
    text = forms.export_qexp(rf.spec, qs)
    body = text.encode()
    os.makedirs(_cache_dir(), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=_cache_dir(), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_checksum_line(body) + body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return qs, text


# ---------------------------------------------------------------- commands

def cmd_coeffs(args, parser) -> int:
    rf = _resolve_form(args, parser)
    if args.limit < 1:
        parser.error("--limit must be >= 1")
    # each modulus once, in the order first given
    moduli = list(dict.fromkeys(args.mod or ()))
    for m in moduli:
        if m % 2 == 0 or not is_prime(m):
            parser.error(f"--mod {m}: modulus must be an odd prime")
    if args.limit > SCAN_GATE and not args.allow_large:
        parser.error(
            f"limit {args.limit} exceeds the compute budget ({SCAN_GATE}) for "
            f"{rf.spec.label}; pass --allow-large to compute anyway"
        )
    if moduli:
        if rf.residue_series is not None:
            blocks = {
                m: rf.residue_series(args.limit, m).coeffs[1:].tolist() for m in moduli
            }
        else:
            # no residue pipeline: compute the exact coefficients once and
            # reduce them per modulus
            exact = rf.exact_series(args.limit).coeffs[1:]
            blocks = {m: [c % m for c in exact] for m in moduli}
        if args.json:
            _emit_json(
                {
                    "form": asdict(rf.spec),
                    "residues": {str(m): [[n + 1, r] for n, r in enumerate(v)]
                                 for m, v in blocks.items()},
                }
            )
        else:
            for m, block in blocks.items():
                print(f"# modulus: {m}")
                sys.stdout.write(forms.export_qexp(rf.spec, QSeries((0, *block))))
        return 0
    qs, text = _cached_series(rf, args.limit)
    if args.json:
        _emit_json(
            {
                "coefficients": [[n, qs[n]] for n in range(1, args.limit + 1)],
                "form": asdict(rf.spec),
            }
        )
    else:
        if text is None:
            if qs[0] != 0:
                print(f"# constant-term: {qs[0]}")
            text = forms.export_qexp(rf.spec, _zero_constant(qs))
        sys.stdout.write(text)
    return 0


def _zero_constant(qs: QSeries) -> QSeries:
    if qs[0] == 0:
        return qs
    return QSeries((0,) + qs.coeffs[1:])


def cmd_classify(args, parser) -> int:
    if args.k % 2 or args.k < 2:
        parser.error("even weight only (k must be even and >= 2)")
    if not is_prime(args.p):
        parser.error(f"--p {args.p} is not prime")
    vc = vanish.classify(args.ap, args.p, args.k, p_divides_level=args.bad)
    out = {"kind": vc.kind, "zeros_sample": sorted(vanish.zeros_up_to(vc, 50))}
    if vc.order is not None:
        out["order"] = vc.order
    if vc.witness is not None:
        out["witness"] = vc.witness
    _emit_json(out)
    return 0


def _a2_a3(rf: ResolvedForm) -> tuple[int, int]:
    qs = rf.exact_series(3)
    return qs[2], qs[3]


def _mf_payload(rf: ResolvedForm):
    a2, a3 = _a2_a3(rf)
    mf = vanish.compute_mf(rf.spec.level, a2, a3, rf.spec.weight)
    reasons = {str(p): rec for p, rec in sorted(mf.justification.items())}
    return mf, {"kept": list(mf.factors_kept), "mf": mf.value, "reasons": reasons}


def cmd_mf(args, parser) -> int:
    rf = _resolve_form(args, parser)
    _, payload = _mf_payload(rf)
    _emit_json(payload)
    return 0


def cmd_scan(args, parser) -> int:
    if args.full_lehmer:
        # Lehmer's bound is a statement about tau, and it is the limit itself
        if args.form != "delta":
            parser.error(
                "--full-lehmer scans tau to Lehmer's bound and needs --form delta; "
                "for another form pass --limit N --allow-large"
            )
        if args.limit is not None:
            parser.error(f"--full-lehmer sets the limit to {FULL_LEHMER_BOUND}; drop --limit")
    rf = _resolve_form(args, parser)
    limit = FULL_LEHMER_BOUND if args.full_lehmer else args.limit
    if limit is None:
        parser.error("--limit is required (or pass --full-lehmer)")
    if limit < 1:
        parser.error("--limit must be >= 1")
    if limit > SCAN_GATE and not (args.allow_large or args.full_lehmer):
        parser.error(
            f"scan limit {limit} exceeds {SCAN_GATE}; pass --allow-large "
            f"(or --full-lehmer for the classical tau bound)"
        )

    mf_value = _mf_payload(rf)[0].value if args.coprime_mf else None
    if rf.scan_source:
        source = rf.scan_source(limit)
    else:
        source = vanish.ScanSource.from_series(rf.exact_series(limit))
    report = vanish.first_vanishing(source, limit, coprime_to=mf_value, level=rf.spec.level)
    cert = report.certification
    # vars, not asdict: asdict would deep-copy every zero before the cap
    payload = {
        **vars(report),
        "certification": {
            "exact": cert.count(vanish.CERT_EXACT),
            "residue": cert.count(vanish.CERT_RESIDUE),
            "zero": cert.count(vanish.CERT_ZERO),
        },
        "form": asdict(rf.spec),
        "mf": mf_value,
        "zeros": report.zeros[:ZEROS_CAP],
        "zeros_omitted": max(0, len(report.zeros) - ZEROS_CAP),
    }
    _emit_json(payload)
    return 0


# ---------------------------------------------------------------- parser

def _add_form_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--form",
        help="named form: delta, e4, e6, or eta-quotient:N with N in {2,3,5,11}",
    )
    sub.add_argument("--curve", help="elliptic curve, five integers a1,a2,a3,a4,a6")
    sub.add_argument("--fixture", help="named curve fixture: 37a1 or 53a1")
    sub.add_argument("--file", help="path to a q-expansion file")
    sub.add_argument(
        "--allow-large",
        action="store_true",
        help="override the compute-budget guard on large limits",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvanish",
        description=(
            "Exact Fourier coefficients of classical newforms, their prime-power "
            "vanishing, the obstruction modulus M_f, and first-vanishing scans."
        ),
        epilog=f"Coefficient cache directory: ${CACHE_ENV} (default {DEFAULT_CACHE})",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_coeffs = subs.add_parser("coeffs", help="print exact coefficients (or residues)")
    _add_form_args(p_coeffs)
    p_coeffs.add_argument("--limit", type=int, required=True, help="largest index n")
    p_coeffs.add_argument(
        "--mod",
        type=int,
        action="append",
        help="emit residues modulo this odd prime (repeatable)",
    )
    p_coeffs.add_argument("--json", action="store_true", help="JSON instead of text")
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_classify = subs.add_parser(
        "classify", help="classify the zero set of r -> a(p^r) from a_p"
    )
    p_classify.add_argument("--p", type=int, required=True, help="the prime p")
    p_classify.add_argument("--ap", type=int, required=True, help="the eigenvalue a(p)")
    p_classify.add_argument("--k", type=int, required=True, help="the (even) weight")
    p_classify.add_argument(
        "--bad", action="store_true", help="p divides the level (bad prime)"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_mf = subs.add_parser("mf", help="compute the obstruction modulus M_f | 6")
    _add_form_args(p_mf)
    p_mf.set_defaults(func=cmd_mf)

    p_scan = subs.add_parser("scan", help="first-vanishing scan up to a bound")
    _add_form_args(p_scan)
    p_scan.add_argument("--limit", type=int, help="scan 1 <= n <= limit")
    p_scan.add_argument(
        "--coprime-mf",
        action="store_true",
        help="also report the first zero coprime to M_f (hits must be prime)",
    )
    p_scan.add_argument(
        "--full-lehmer",
        action="store_true",
        help=f"scan to the classical tau bound {FULL_LEHMER_BOUND} (long-running)",
    )
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except vanish.GuaranteeViolationError as exc:
        print(f"guarantee violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
