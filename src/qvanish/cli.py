"""Command-line surface: coeffs, classify, mf, scan.

COMMANDS declares each option once.  _read takes a command line spelled as
documented straight from it; argparse, built from it too, reads every other
spelling and owns help, usage and errors.  A selector (--form a key of
NAMED_FORMS, --fixture of ec.FIXTURES) resolves by lookup to the ResolvedForm
of its family's one constructor: the eta product (Delta at level 1, the eta
quotients at N), Eisenstein series, curves, files.  Each rule of a request is
checked once, before any form is built or file opened: coeffs and scan share
one compute gate (a limit above SCAN_GATE needs --allow-large), and --mod
takes the lanes' modulus rule.  A form record reads its series, its lanes
and its scan to the limit of the request.

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
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import ec, forms, hecke, vanish
from .arith import is_prime, sieve_primes
from .forms import FormSpec
from .series import LANE_PRIMES, QSeries, ResidueSeries, is_lane_modulus, reduce_mod

CACHE_ENV = "QVANISH_CACHE_DIR"
DEFAULT_CACHE = os.path.join("~", ".cache", "qvanish")
FULL_LEHMER_BOUND = 3316799  # smallest n with tau(n) = 0 exceeds this
# the one compute gate: coeffs and scan refuse a larger limit without --allow-large
SCAN_GATE = 200000
# Part of every cache key: bump it when the cached payload or the code that
# computes it changes, so entries written before are never read again.
CACHE_FORMAT = 2


@dataclass
class ResolvedForm:
    spec: FormSpec
    # series(bound), the exact a(0..bound) that coeffs and mf read
    series: Callable[[int], QSeries]
    # lanes(bound), whose lane(m) coeffs --mod prints
    lanes: Callable[[int], Callable[[int], ResidueSeries]]
    # scan(bound, coprime_to): the first-vanishing report, with M_f or None
    scan: Callable[[int, int | None], vanish.ScanReport]
    # an eigenform by construction (Delta, eta quotients, curves): cached, M_f unchecked
    newform: bool = False
    # the largest n a file gives, to which M_f checks that it is an eigenform
    data_bound: int | None = None


def _source_form(spec: FormSpec, source: Callable[[int], vanish.ScanSource],
                 **kwargs) -> ResolvedForm:
    """A form read through the ScanSource of each bound, and scanned index by index."""
    return ResolvedForm(
        spec, lambda bound: source(bound).series(), lambda bound: source(bound).lane,
        lambda bound, coprime_to: vanish.first_vanishing(
            source(bound), coprime_to=coprime_to, level=spec.level),
        **kwargs,
    )


def _eta_source(level: int) -> Callable[[int], vanish.ScanSource]:
    """Delta (level 1) or an eta quotient: residue lanes, lifted for exact values.

    The source's lane cache builds each lane once, to the source's bound, when
    the scan, coeffs --mod or an exact value first reads it.  The series is
    the lift of the lanes Deligne's bound asks for at the bound, and the exact
    callback lifts a(n) from those it asks for at n (Delta above 28521 also a
    lift modulus).  The scan's reach is that bound's (forms.lift_reach), so a
    scan stops building lanes once those it has fix every open index, and
    then calls the exact callback, which reads only those lanes.
    """
    reach = partial(forms.lift_reach, forms.eta_product_spec(level).weight)

    def source(bound: int) -> vanish.ScanSource:
        lane_of = cache(partial(forms.eta_quotient_mod, level, bound))
        exact = partial(forms.eta_quotient_coefficient, level, lane_of=lane_of)
        series = partial(forms.eta_quotient, level, bound, lane_of)
        return vanish.ScanSource(bound, exact, LANE_PRIMES, lane_of, series=series, reach=reach)

    return source


def _eta_product_form(level: int) -> ResolvedForm:
    """Delta or an eta quotient, read through _eta_source."""
    return _source_form(forms.eta_product_spec(level), _eta_source(level), newform=True)


def _eisenstein_form(name: str, half: int) -> ResolvedForm:
    """E4 (half = 2) or E6 (half = 3): the exact series, with a constant term."""
    return _source_form(
        FormSpec(weight=2 * half, level=1, label=name, source=f"eisenstein:{name}"),
        lambda b: vanish.ScanSource.from_series(forms.eisenstein_coeffs(half, b)),
    )


def _curve_form(curve: ec.WeierstrassCurve) -> ResolvedForm:
    """The weight-2 newform of a curve, from its primes.

    coeffs and mf read the exact prime table's series.  A scan reads
    ec.scan_table, exact only where a_p may be 0, through vanish.prime_sieve,
    which reads each zero it prints again through the table's coeff.
    """
    label = curve.label or "curve"
    table = cache(partial(ec.prime_table, curve))

    def scan(bound: int, coprime_to: int | None) -> vanish.ScanReport:
        return vanish.prime_sieve(ec.scan_table(curve, bound), coprime_to=coprime_to)

    return ResolvedForm(
        FormSpec(weight=2, level=curve.level, label=label, source=f"elliptic-curve:{label}"),
        lambda bound: table(bound).series,
        lambda bound: partial(reduce_mod, table(bound).series),
        scan,
        newform=True,
    )


def _file_form(path) -> ResolvedForm:
    """The series read from a q-expansion file, served to the bound it covers."""
    spec, qs = forms.ingest_qexp(path)

    def source(bound: int) -> vanish.ScanSource:
        if bound > qs.trunc_bound:
            raise ValueError(f"{path} covers n <= {qs.trunc_bound}, below requested {bound}")
        return vanish.ScanSource.from_series(QSeries(qs.coeffs[: bound + 1]))

    return _source_form(spec, source, data_bound=qs.trunc_bound)


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
        return rf.series(bound), None
    path = os.path.join(_cache_dir(), _cache_key(rf.spec, bound) + ".qexp")
    hit = _cache_hit(path, rf.spec, bound)
    if hit is not None:
        return hit
    qs = rf.series(bound)
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
        lane = rf.lanes(limit)
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
    qs = rf.series(bound)
    if rf.newform:
        return qs
    k, level = rf.spec.weight, rf.spec.level
    primes = {p: qs[p] for p in sieve_primes(bound).tolist()}
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
    report = rf.scan(limit, mf_value)
    # vars, not asdict, which would deep-copy each printed zero
    _emit_json({**vars(report), "form": asdict(rf.spec), "mf": mf_value})
    return 0


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """argparse, naming the --curve= spelling when a1 < 0 hid the curve (subparsers too)."""

    def error(self, message):
        if message.startswith("argument --curve: expected one argument"):
            message += "; write --curve=-1,0,0,0,1 when a1 is negative"
        super().error(message)


class _Opt(NamedTuple):
    flag: str
    help: str
    value: object = None  # int, a table whose keys are the choices, or None for text
    action: str = "store"  # argparse's action: store, store_true or append


# Each command's help, function and options, declared once for build_parser and
# _read.  A list is a group of which exactly one option is given (mutually
# exclusive when it has more than one); a bare option is optional.
_FORM = [
    _Opt("--form", "named form", NAMED_FORMS),
    _Opt("--curve", "elliptic curve, five integers a1,a2,a3,a4,a6; "
         "write --curve=-1,0,0,0,1 when a1 < 0"),
    _Opt("--fixture", "named curve fixture", sorted(ec.FIXTURES)),
    _Opt("--file", "path to a q-expansion file"),
]
# on the commands with a limit, and so with the gate
_GATE = _Opt("--allow-large", "override the compute gate on large limits", action="store_true")
COMMANDS = {
    "coeffs": ("print exact coefficients (or residues)", cmd_coeffs, _FORM,
               [_Opt("--limit", "largest index n", int)],
               _Opt("--mod", "emit residues modulo this odd prime below 2^31 (repeatable)",
                    int, "append"),
               _Opt("--json", "JSON instead of text", action="store_true"), _GATE),
    "classify": ("classify the zero set of r -> a(p^r) from a_p", cmd_classify,
                 [_Opt("--p", "the prime p", int)], [_Opt("--ap", "the eigenvalue a(p)", int)],
                 [_Opt("--k", "the (even) weight", int)],
                 _Opt("--bad", "p divides the level (bad prime)", action="store_true")),
    "mf": ("compute the obstruction modulus M_f | 6", cmd_mf, _FORM),
    "scan": ("first-vanishing scan up to a bound", cmd_scan, _FORM,
             [_Opt("--limit", "scan 1 <= n <= limit", int),
              _Opt("--full-lehmer", f"scan to the classical tau bound {FULL_LEHMER_BOUND} "
                   "(long-running)", action="store_true")],
             _Opt("--coprime-mf", "also report the first zero coprime to M_f (hits must be prime)",
                  action="store_true"), _GATE),
}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse makes of argv if it is spelled as documented, else None.

    That is a command, then its flags in full, each value flag followed by a
    value not starting with '-' (an int, or a key of its table); only --mod
    repeats.  Abbreviations, --opt=value, negative values, -h and every error
    are argparse's.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, *entries = COMMANDS[argv[0]]
    options = {opt.flag: opt for e in entries for opt in (e if isinstance(e, list) else [e])}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        opt = options.get(flag)
        if opt is None or (flag in given and opt.action != "append"):
            return None
        if opt.action == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a flag that ends argv has no value
        if value.startswith("-"):
            return None
        if opt.value is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif opt.value is not None and value not in opt.value:
            return None
        given[flag] = [*given.get(flag, ()), value] if opt.action == "append" else value
    if any(sum(opt.flag in given for opt in e) != 1 for e in entries if isinstance(e, list)):
        return None
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, opt in options.items():
        default = False if opt.action == "store_true" else None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qvanish", description=(
        "Exact Fourier coefficients of classical newforms, their prime-power vanishing, "
        "the obstruction modulus M_f, and first-vanishing scans."
    ), epilog=f"Coefficient cache directory: ${CACHE_ENV} (default {DEFAULT_CACHE})")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, *entries) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_)
        sub.set_defaults(func=func)
        for entry in entries:
            group = entry if isinstance(entry, list) else [entry]
            into = sub.add_mutually_exclusive_group(required=True) if len(group) > 1 else sub
            for opt in group:
                kind = ({"type": int} if opt.value is int
                        else {"choices": opt.value} if opt.value else {})
                into.add_argument(opt.flag, action=opt.action, help=opt.help,
                                  required=into is sub and isinstance(entry, list), **kind)
    return parser


def main(argv=None) -> int:
    args = _read(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
    else:  # a rule checked in a command builds the parser only to report through its error
        parser = SimpleNamespace(error=lambda message: build_parser().error(message))
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
