"""Command-line surface: coeffs, classify, mf, scan.

argparse owns every selector name (--form takes a key of NAMED_FORMS, --fixture
one of ec.FIXTURES), and each resolves by lookup to the ResolvedForm built by
the one constructor of its family: the eta product (Delta at level 1, the eta
quotients at N), Eisenstein series, curves, files.  Each rule of a request is
checked once, before any form is built or file opened: coeffs and scan share
one compute gate (a limit above SCAN_GATE needs --allow-large), and --mod
takes the lanes' modulus rule.  A scan's bound is that of its source.

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
from .arith import is_prime, sieve_primes
from .forms import FormSpec
from .series import LANE_PRIMES, QSeries, is_lane_modulus, reduce_mod

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
    # what a scan to a bound reads; coeffs --mod prints its lane(m), coeffs and mf its series()
    source: Callable[[int], vanish.ScanSource]
    # an eigenform by construction (Delta, eta quotients, curves): cached, M_f unchecked
    newform: bool = False
    # the largest n a file gives, to which M_f checks that it is an eigenform
    data_bound: int | None = None


def _eta_product_form(level: int) -> ResolvedForm:
    """Delta (level 1) or an eta quotient: residue lanes, lifted for exact values.

    The source's lane cache builds each lane once, to the source's bound, when
    the scan, coeffs --mod or an exact value first reads it.  The series is
    the lift of the lanes Deligne's bound asks for at the bound, and the exact
    callback lifts a(n) from those it asks for at n (Delta above 28521 also a
    lift modulus); a scan calls it once every certifying lane is built.
    """

    def source(bound: int) -> vanish.ScanSource:
        lane_of = cache(partial(forms.eta_quotient_mod, level, bound))
        exact = partial(forms.eta_quotient_coefficient, level, lane_of=lane_of)
        series = partial(forms.eta_quotient, level, bound, lane_of)
        return vanish.ScanSource(bound, exact, LANE_PRIMES, lane_of, series=series)

    return ResolvedForm(spec=forms.eta_product_spec(level), source=source, newform=True)


def _eisenstein_form(name: str, half: int) -> ResolvedForm:
    """E4 (half = 2) or E6 (half = 3): the exact series, with a constant term."""
    return ResolvedForm(
        spec=FormSpec(weight=2 * half, level=1, label=name, source=f"eisenstein:{name}"),
        source=lambda b: vanish.ScanSource.from_series(forms.eisenstein_coeffs(half, b)),
    )


def _curve_form(curve: ec.WeierstrassCurve) -> ResolvedForm:
    """The weight-2 newform of a curve: a(n) from the prime table of point counts."""
    label = curve.label or "curve"

    def source(bound: int) -> vanish.ScanSource:
        primes = ec.prime_table(curve, bound)
        return vanish.ScanSource(
            bound, primes.coeff, lane=lambda m: reduce_mod(primes.series, m),
            series=lambda: primes.series,
        )

    return ResolvedForm(
        spec=FormSpec(weight=2, level=curve.level, label=label, source=f"elliptic-curve:{label}"),
        source=source,
        newform=True,
    )


def _file_form(path) -> ResolvedForm:
    """The series read from a q-expansion file, served to the bound it covers."""
    spec, qs = forms.ingest_qexp(path)

    def source(bound: int) -> vanish.ScanSource:
        if bound > qs.trunc_bound:
            raise ValueError(f"{path} covers n <= {qs.trunc_bound}, below requested {bound}")
        return vanish.ScanSource.from_series(QSeries(qs.coeffs[: bound + 1]))

    return ResolvedForm(spec=spec, source=source, data_bound=qs.trunc_bound)


# every --form name and the constructor it resolves to, called once per request
NAMED_FORMS = {
    "delta": partial(_eta_product_form, 1),
    "e4": partial(_eisenstein_form, "e4", 2),
    "e6": partial(_eisenstein_form, "e6", 3),
    **{f"eta-quotient:{n}": partial(_eta_product_form, n) for n in forms.ETA_QUOTIENT_LEVELS},
}


def _resolve_form(args, parser) -> ResolvedForm:
    if args.form is not None:
        return NAMED_FORMS[args.form]()
    if args.fixture is not None:
        return _curve_form(ec.FIXTURES[args.fixture])
    if args.curve is not None:
        try:
            curve = ec.parse_curve(args.curve)
        except ValueError as exc:
            parser.error(str(exc))
        return _curve_form(curve)
    try:
        return _file_form(args.file)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot ingest {args.file}: {exc}")


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------- cache

def _cache_dir() -> str:
    return os.path.expanduser(os.environ.get(CACHE_ENV) or DEFAULT_CACHE)


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
    """The series to bound and, for a newform, its q-expansion text.

    Newforms are cusp forms, so the text is what coeffs prints.  An entry
    that cannot be written costs a warning on stderr, not the answer.
    """
    if not rf.newform:
        return rf.source(bound).series(), None
    path = os.path.join(_cache_dir(), _cache_key(rf.spec, bound) + ".qexp")
    hit = _cache_hit(path, rf.spec, bound)
    if hit is not None:
        return hit
    qs = rf.source(bound).series()
    text = forms.export_qexp(rf.spec, qs)
    body = text.encode()
    tmp = None
    try:
        os.makedirs(_cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=_cache_dir(), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(_checksum_line(body) + body)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: cache entry not written: {exc}", file=sys.stderr)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return qs, text


# ---------------------------------------------------------------- commands

def _gated_limit(args, parser) -> int:
    """The limit of coeffs or scan, once it passes the one gate; nothing is built yet."""
    if getattr(args, "full_lehmer", False):
        # Lehmer's bound is a statement about tau, and it is the limit itself
        if args.form != "delta":
            parser.error(
                "--full-lehmer scans tau to Lehmer's bound and needs --form delta; "
                "for another form pass --limit N --allow-large"
            )
        return FULL_LEHMER_BOUND
    if args.limit < 1:
        parser.error("--limit must be >= 1")
    if args.limit > SCAN_GATE and not args.allow_large:
        parser.error(
            f"limit {args.limit} exceeds the compute budget ({SCAN_GATE}); "
            "pass --allow-large to compute anyway"
        )
    return args.limit


def cmd_coeffs(args, parser) -> int:
    limit = _gated_limit(args, parser)
    # each modulus once, in the order first given
    moduli = list(dict.fromkeys(args.mod or ()))
    for m in moduli:
        if not is_lane_modulus(m):
            parser.error(f"--mod {m}: modulus must be an odd prime below 2^31")
    rf = _resolve_form(args, parser)
    if moduli:
        lane = rf.source(limit).lane
        blocks = {m: lane(m).coeffs[1:].tolist() for m in moduli}
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
    qs, text = _cached_series(rf, limit)
    if args.json:
        _emit_json(
            {
                "coefficients": [[n, qs[n]] for n in range(1, limit + 1)],
                "form": asdict(rf.spec),
            }
        )
    else:
        if text is None:
            if qs[0] != 0:
                print(f"# constant-term: {qs[0]}")
            text = forms.export_qexp(rf.spec, QSeries((0, *qs.coeffs[1:])))
        sys.stdout.write(text)
    return 0


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


def _eigenform_series(rf: ResolvedForm, bound: int) -> QSeries:
    """rf's series to bound, refused unless it is a normalized eigenform, as M_f needs."""
    qs = rf.source(bound).series()
    if rf.newform:
        return qs
    k, level = rf.spec.weight, rf.spec.level
    primes = {p: qs[p] for p in sieve_primes(bound)}
    # At a good p, a(p^2) = a(p)^2 - p^(k-1) has at least m = (k-1)(bits(p)-1) bits; once
    # m >= size it equals no a(n) here, so p^(k-1) is not built and only n < p^2 are compared.
    size = 2 * max(map(abs, qs.coeffs)).bit_length() + 2
    big = next((p for p in primes if p * p <= bound and level % p
                and (k - 1) * (p.bit_length() - 1) >= size), None)
    cut = big * big if big else bound + 1
    want = hecke.qexp_from_primes(hecke.PrimeEigenvalues(k, level, primes, bound), cut - 1)
    bad = next((n for n in range(1, cut) if qs[n] != want[n]), cut)
    if bad > bound:
        return qs
    gives = (_decimal(want[bad]) if bad < cut
             else f"a number of at least {(k - 1) * (big.bit_length() - 1)} bits")
    raise ValueError(
        f"{rf.spec.label} is not a normalized Hecke eigenform: a({bad}) = {qs[bad]}, "
        f"its a(p) give {gives}; M_f holds only for one"
    )


def _decimal(value: int) -> str:
    """value in decimal, or its size where Python refuses so long a conversion."""
    try:
        return str(value)
    except ValueError:
        return f"a number of {value.bit_length()} bits"


def _mf(rf: ResolvedForm) -> vanish.MfResult:
    """M_f from a(2) and a(3), once the form is known to be a normalized eigenform.

    A file is checked to its own last index, so that M_f never rests on a
    premise its data refute; any other form that is not a newform by
    construction is checked to 3.
    """
    qs = _eigenform_series(rf, max(3, rf.data_bound or 3))
    return vanish.compute_mf(rf.spec.level, qs[2], qs[3], rf.spec.weight)


def cmd_mf(args, parser) -> int:
    mf = _mf(_resolve_form(args, parser))
    reasons = {str(p): rec for p, rec in sorted(mf.justification.items())}
    _emit_json({"kept": list(mf.factors_kept), "mf": mf.value, "reasons": reasons})
    return 0


def cmd_scan(args, parser) -> int:
    limit = _gated_limit(args, parser)
    rf = _resolve_form(args, parser)
    # with M_f the form must be an eigenform, so that exit 3 stays a bug signal;
    # _mf checks a file to its last index, and so to any limit it serves
    mf_value = _mf(rf).value if args.coprime_mf else None
    report = vanish.first_vanishing(rf.source(limit), coprime_to=mf_value, level=rf.spec.level)
    # vars, not asdict: asdict would deep-copy every zero before the cap
    payload = {
        **vars(report),
        "form": asdict(rf.spec),
        "mf": mf_value,
        "zeros": report.zeros[:ZEROS_CAP],
        "zeros_omitted": max(0, len(report.zeros) - ZEROS_CAP),
    }
    _emit_json(payload)
    return 0


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """argparse, naming the --curve= spelling when a1 < 0 hid the curve (subparsers too)."""

    def error(self, message):
        if message.startswith("argument --curve: expected one argument"):
            message += "; write --curve=-1,0,0,0,1 when a1 is negative"
        super().error(message)


def _add_form_args(sub: argparse.ArgumentParser) -> None:
    selector = sub.add_mutually_exclusive_group(required=True)
    selector.add_argument("--form", choices=NAMED_FORMS, help="named form")
    selector.add_argument(
        "--curve",
        help="elliptic curve, five integers a1,a2,a3,a4,a6; write --curve=-1,0,0,0,1 when a1 < 0",
    )
    selector.add_argument("--fixture", choices=sorted(ec.FIXTURES), help="named curve fixture")
    selector.add_argument("--file", help="path to a q-expansion file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="emit residues modulo this odd prime below 2^31 (repeatable)",
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
    scan_bound = p_scan.add_mutually_exclusive_group(required=True)
    scan_bound.add_argument("--limit", type=int, help="scan 1 <= n <= limit")
    scan_bound.add_argument(
        "--full-lehmer",
        action="store_true",
        help=f"scan to the classical tau bound {FULL_LEHMER_BOUND} (long-running)",
    )
    p_scan.add_argument(
        "--coprime-mf",
        action="store_true",
        help="also report the first zero coprime to M_f (hits must be prime)",
    )
    p_scan.set_defaults(func=cmd_scan)
    for sub in (p_coeffs, p_scan):  # the commands with a limit, and so with the gate
        sub.add_argument(
            "--allow-large", action="store_true", help="override the compute gate on large limits"
        )
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
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
