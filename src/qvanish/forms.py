"""Coefficient providers for the classical primitive forms in scope.

Every product form here is one eta product, whose lane over Z/m eta_product
builds: the weight-12 level-1 discriminant form Delta = eta(z)^24 is its
level-1 entry, and the Shimura eta quotients eta(z)^a eta(Nz)^a for N in
{2, 3, 5, 11} are the others.  Every eta product is a normalized newform, so
Deligne's bound makes the symmetric CRT lift of enough lanes exact:
eta_quotient lifts the series over Z, and _deligne_lift a single a(n), both
from the lanes _lift_lanes reads from a lane source (a form's lane cache).
How far each prefix of those lanes fixes a(n), lift_reach, picks the lanes a
lift reads, and is the reach of an eta-product scan.
The eta_quotient_* functions serve every level, Delta's included; the
delta_* names are the same calls at level 1.  Delta also has an independent
route through the normalized Eisenstein series, which live here too.  A
line-oriented q-expansion file format carries externally supplied forms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, prod
from operator import eq
from typing import Callable

import numpy as np

from .arith import factorize, multiplicative
from .series import (
    LANE_PRIMES,
    QSeries,
    ResidueSeries,
    SparseSeries,
    eta_cube,
    eta_raw,
    exact_divide,
    mul_sparse,  # noqa: F401  (not called; the benchmark's tracing wraps forms.mul_sparse)
    mul_sparse_mod,
    mul_sparse_sparse_mod,
)

# LANE_PRIMES, then two odd primes below 2^31 that lift exact series but never certify
_LIFT_MODULI = LANE_PRIMES + (469762049, 167772161)

# Levels N for which (Delta(z)/Delta(Nz))^(1/(N+1)) is a cusp form spanning a
# one-dimensional space; the exponent on each eta factor is 24/(N+1).
ETA_QUOTIENT_LEVELS = (2, 3, 5, 11)


@dataclass(frozen=True)
class FormSpec:
    """Arithmetic identity of a form: weight, level, character, provenance."""

    weight: int
    level: int
    label: str
    source: str
    character: str = "trivial"

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2:
            raise ValueError("weight must be even and >= 2")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.character != "trivial":
            raise ValueError("only the trivial character is supported")


def _sigma_prime_power(p: int, e: int, m: int) -> int:
    """sigma_m(p^e) = (p^(m(e+1)) - 1)/(p^m - 1), or e + 1 when m = 0."""
    if m == 0:
        return e + 1
    pm = p**m
    return (pm ** (e + 1) - 1) // (pm - 1)


def sigma(n: int, m: int) -> int:
    """Sum of m-th powers of the positive divisors of n, exact.

    Multiplicative: the product of sigma_m(p^e) over p^e || n.
    """
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    if m < 0:
        raise ValueError("sigma requires m >= 0")
    out = 1
    for p, e in factorize(n):
        out *= _sigma_prime_power(p, e, m)
    return out


def bernoulli(idx: int) -> Fraction:
    """Bernoulli number B_idx for even idx >= 2, via sum_j C(n+1, j) B_j = 0."""
    if idx < 2 or idx % 2:
        raise ValueError("only even Bernoulli indices >= 2 are supported")
    b = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, idx + 1):
        if n % 2:
            b.append(Fraction(0))
        else:
            b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b[idx]


def eisenstein_coeffs(half_weight: int, bound: int) -> QSeries:
    """Normalized Eisenstein series E_{2k} of weight 2k, k = half_weight >= 2.

    E_{2k} = 1 - (4k/B_{2k}) sum_{n>=1} sigma_{2k-1}(n) q^n.  Each coefficient
    must land in Z, so the normalization -4k/B_{2k} must be an integer (240
    for E4, -504 for E6); where it is fractional (first at weight 12, where
    it is 65520/691) a(1) already is, and this raises rather than round.
    Weight 2 is excluded: E_2 is only quasi-modular.
    """
    if half_weight < 2:
        raise ValueError("weight 2k must be >= 4")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    c = Fraction(-4 * half_weight) / bernoulli(2 * half_weight)
    if c.denominator != 1:
        # sigma(1) = 1, so a(1) = c is the first fractional coefficient
        raise ValueError(
            f"E_{2 * half_weight} coefficient at n=1 is not an integer "
            f"(normalization {c})"
        )
    m = 2 * half_weight - 1
    # c * sigma_m(n) from the first pass, and a(0) = 1
    a = multiplicative(bound, lambda p, e: _sigma_prime_power(p, e, m), scale=c.numerator)
    a[0] = 1
    return QSeries(tuple(a))


def delta_eisenstein(bound: int) -> QSeries:
    """The discriminant form as (E4^3 - E6^2)/1728; agrees with delta_eta.

    Normalization bridge: with G_{2k} = 2*zeta(2k)*E_{2k}, zeta(4) = pi^4/90
    and zeta(6) = pi^6/945 give 60*G4 = (4*pi^4/3)*E4 and 140*G6 =
    (8*pi^6/27)*E6, hence (60*G4)^3 - 27*(140*G6)^2 = (2*pi)^12 *
    (E4^3 - E6^2)/1728.  The same (2*pi)^12 multiplies the eta product's
    normalization, so the integer expansion of both routes is
    (E4^3 - E6^2)/1728.  Every division by 1728 is checked exact.
    """
    e4 = eisenstein_coeffs(2, bound)
    e6 = eisenstein_coeffs(3, bound)
    return exact_divide(e4**3 - e6**2, 1728)


@lru_cache(maxsize=None)
def eta_product_spec(level: int) -> FormSpec:
    """Identity of eta_product(level, ...): delta at level 1, else the eta quotient.

    Raises ValueError for a level outside 1 and ETA_QUOTIENT_LEVELS.
    """
    if level not in (1, *ETA_QUOTIENT_LEVELS):
        raise ValueError(f"eta product level must be 1 or one of {ETA_QUOTIENT_LEVELS}")
    if level == 1:
        return FormSpec(weight=12, level=1, label="delta", source="delta-eta")
    return FormSpec(
        weight=24 // (level + 1),
        level=level,
        label=f"eta-quotient-{level}",
        source=f"eta-quotient:{level}",
    )


@lru_cache(maxsize=None)
def lift_reach(weight: int, count: int) -> int:
    """The largest n with 16 n^weight < M^2, M the product of _LIFT_MODULI[:count].

    Residues of a weight-k newform modulo those count moduli fix a(n) for
    every n up to it (see _deligne_lift); count 0 gives 0.  Since
    LANE_PRIMES is a prefix of _LIFT_MODULI, it is also how far a scan's first
    count lanes fix every a(n): for Delta one lane reaches n = 25, two 794,
    three 28521, four 795228 and five 18675762.
    """
    big_m2 = prod(_LIFT_MODULI[:count]) ** 2
    lo, hi = 0, 1
    while 16 * hi**weight < big_m2:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # 16 lo^weight < M^2 <= 16 hi^weight
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if 16 * mid**weight < big_m2 else (lo, mid)
    return lo


def _lift_moduli(weight: int, bound: int) -> tuple[int, ...]:
    """The shortest prefix of _LIFT_MODULI whose lift reaches bound (lift_reach).

    Then the lift of lanes modulo that prefix is exact to n = bound; a bound
    past the last lift modulus raises ValueError.
    """
    for count in range(1, len(_LIFT_MODULI) + 1):
        if bound <= lift_reach(weight, count):
            return _LIFT_MODULI[:count]
    last = lift_reach(weight, len(_LIFT_MODULI))
    raise ValueError(f"exact weight-{weight} series stop at bound {last}; {bound} is past it")


@lru_cache(maxsize=None)
def _crt_basis(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(M, e): M the product of the moduli, e_i = 1 mod m_i and 0 mod the others."""
    big_m = prod(moduli)
    return big_m, tuple(big_m // m * pow(big_m // m, -1, m) for m in moduli)


def _lift_lanes(
    level: int, n: int, lane_of: Callable[[int], ResidueSeries] | None
) -> tuple[list[ResidueSeries], int, tuple[int, ...]]:
    """(lanes, M, e): the lanes an exact a(1..n) is lifted from, and their CRT basis.

    The lanes are those modulo _lift_moduli(k, n), read from lane_of(m), or
    built to n without it; each must cover n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    moduli = _lift_moduli(eta_product_spec(level).weight, n)
    lane_of = lane_of or partial(eta_quotient_mod, level, n)
    lanes = [lane_of(m) for m in moduli]
    short = [lane.modulus for lane in lanes if lane.trunc_bound < n]
    if short:
        raise ValueError(f"residue lanes mod {short} do not cover n = {n}")
    return (lanes, *_crt_basis(moduli))


def eta_product(level: int, bound: int, modulus: int) -> ResidueSeries:
    """q prod_{n>=1} (1 - q^n)^a (1 - q^(N*n))^a modulo m, a = 24/(N+1), truncated at bound.

    Level N = 1 is the discriminant form Delta = eta(z)^24, with coefficient
    n equal to tau(n); N in {2, 3, 5, 11} gives the Shimura eta quotient
    eta(z)^a eta(Nz)^a of weight a, equal to (Delta(z)/Delta(Nz))^(1/(N+1)).
    The eta prefactors contribute q^(a(1+N)/24) = q^1.  For each dilation d
    in (1, N) and its exponent e (a, or 24 at d = N = 1) come e // 3 sparse
    factors with Jacobi's cube expansion of prod (1 - q^(dn))^3 and e % 3
    with the pentagonal expansion of prod (1 - q^(dn)): 8 factors for Delta,
    8, 4, 4 and 4 at N = 2, 3, 5 and 11.  q shifts the first factor's terms,
    whose product with the second, taken from the two term lists alone,
    seeds the accumulator; each factor after them is one dense sparse pass:
    6 for Delta, 6, 2, 2 and 2 at N = 2, 3, 5 and 11.  Each pass costs
    O(bound^1.5), and there is no power-series division.  The passes run
    over Z/modulus; the series over Z is eta_quotient, their lift.
    """
    weight = eta_product_spec(level).weight  # rejects levels out of scope
    if bound < 1:
        raise ValueError("bound must be >= 1")
    exponents = {1: weight}
    exponents[level] = exponents.get(level, 0) + weight
    factors = []
    for dilation, e in exponents.items():
        for expansion, count in zip((eta_cube, eta_raw), divmod(e, 3)):
            if count:
                factors += [expansion(bound, dilation)] * count
    first, second, *rest = factors
    seed = SparseSeries(tuple((i + 1, c) for i, c in first.terms if i < bound), bound)
    # the int64 guards of the products below, checked before any lane is allocated
    size = [sum(abs(c) for _, c in f.terms) for f in (seed, second, *rest)]
    if size[0] * size[1] >= 2**62 or (max(size[2:]) + 1) * modulus >= 2**62:
        raise ValueError(
            f"residue lanes modulo {modulus} stop short of bound {bound}: "
            "their int64 sums would overflow"
        )
    acc = mul_sparse_sparse_mod(seed, second, modulus)  # q times the first factor, then the second
    for factor in rest:
        acc = mul_sparse_mod(acc, factor)
    return acc


def delta_eta(bound: int) -> QSeries:
    """The discriminant form q prod (1-q^n)^24; coefficient n is tau(n)."""
    return eta_quotient(1, bound)


def delta_eta_mod(bound: int, m: int) -> ResidueSeries:
    """delta_eta modulo the odd prime m, built directly in the residue lane."""
    return eta_product(1, bound, m)


def eta_quotient(
    level: int, bound: int, lane_of: Callable[[int], ResidueSeries] | None = None
) -> QSeries:
    """The exact series of eta_product(level, ...) to bound: Delta at level 1.

    It is the symmetric CRT lift of the lanes _lift_lanes reads, exact by
    Deligne's bound (see _deligne_lift); a bound past the last lift modulus
    raises ValueError before any lane.
    """
    lanes, big_m, basis = _lift_lanes(level, bound, lane_of)
    x = sum(lane.coeffs[: bound + 1].astype(object) * e for lane, e in zip(lanes, basis)) % big_m
    return QSeries(tuple(np.where(2 * x > big_m, x - big_m, x).tolist()))


def eta_quotient_mod(level: int, bound: int, m: int) -> ResidueSeries:
    """eta_product(level, bound, m): the residue lane modulo the odd prime m."""
    return eta_product(level, bound, m)


def _deligne_lift(
    level: int, n: int, lane_of: Callable[[int], ResidueSeries] | None = None
) -> int:
    """Coefficient n of eta_product(level, ...) from its residue lanes at n.

    Every eta product is a normalized newform of some weight k, so Deligne's
    bound |a(n)| <= d(n) n^((k-1)/2) with d(n) <= 2 sqrt(n) gives
    |a(n)| <= 2 n^(k/2).  The lanes modulo _lift_moduli(k, n) have a product
    M with 16 n^k < M^2, that is 2 |a(n)| < M, so the symmetric CRT lift of
    their residues at n (the representative in (-M/2, M/2]) is a(n) itself.
    lane_of(m) gives the lane modulo m, which must cover n; without it the
    lanes are built to n.  The lift stays on Python ints: it runs once per
    all-lanes-zero index of a scan.
    """
    lanes, big_m, basis = _lift_lanes(level, n, lane_of)
    x = sum(int(lane.coeffs[n]) * e for lane, e in zip(lanes, basis)) % big_m
    return x - big_m if 2 * x > big_m else x


def delta_coefficient(n: int, lane_of: Callable[[int], ResidueSeries] | None = None) -> int:
    """tau(n) for a single index: eta_quotient_coefficient(1, n, lane_of).

    The Delta scan calls eta_quotient_coefficient itself; this name stays
    because the benchmark's traced runs wrap it (ROADMAP item A moves them to
    stage events).
    """
    return _deligne_lift(1, n, lane_of)


def eta_quotient_coefficient(
    level: int, n: int, lane_of: Callable[[int], ResidueSeries] | None = None
) -> int:
    """Exact a(n) of eta_product(level, ...) for a single index, by _deligne_lift.

    Level 1 is Delta.  lane_of(m) gives the lane modulo m that covers n; the
    lift reads the lanes modulo _lift_moduli(k, n) and builds them to n
    without it.  This is the exact callback of every product-form scan, with
    the scan's own lane cache as the source, called once per all-lanes-zero
    index; the benchmark's traced runs count those calls by wrapping it.
    """
    return _deligne_lift(level, n, lane_of)


def export_qexp(spec: FormSpec, qs: QSeries) -> str:
    """Serialize to the q-expansion text format (see ingest_qexp).

    The body runs over n >= 1, so the constant term must vanish.
    """
    if qs[0] != 0:
        raise ValueError("q-expansion format has no constant term; a(0) must be 0")
    lines = [
        f"# weight: {spec.weight}",
        f"# level: {spec.level}",
        "# character: trivial",
        f"# label: {spec.label}",
    ]
    for n in range(1, qs.trunc_bound + 1):
        lines.append(f"{n} {qs[n]}")
    return "\n".join(lines) + "\n"


def _decimal(text: str) -> int:
    """int(text) for a decimal integer; int() alone also reads '_' digit separators."""
    if "_" in text:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


# Joins the body lines before their one split.  The mark is a token of its own
# that int() refuses.  With L lines joined into 3L - 1 tokens, and every token
# off the positions 2 mod 3 an integer, the L - 1 marks can only sit at those
# L - 1 positions, so each line held exactly two tokens.
_LINE_MARK = " ; "


def _body_columns(joined: str, rows: int) -> tuple[list[bool], list[int]] | None:
    """Read rows nonblank body lines joined by _LINE_MARK: whether each n is
    its line's position, and the a(n) column.  None unless each line is
    exactly two integers."""
    tokens = joined.split()
    if len(tokens) != 3 * rows - 1 or "_" in joined:
        return None
    try:
        in_place = list(map(eq, map(int, tokens[0::3]), range(1, rows + 1)))
        return in_place, list(map(int, tokens[1::3]))
    except ValueError:
        return None


def _bad_body_line(lines: list[str], start: int) -> str:
    """Name the first body line that _body_columns refuses."""
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            return f"line {lineno}: header after body"
        parts = line.split()
        if len(parts) != 2:
            return f"line {lineno}: expected '<n> <a(n)>', got {line!r}"
        try:
            _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            return f"line {lineno}: non-integer entry in {line!r}"
    return "malformed body"


def parse_qexp(text: str, label_fallback: str = "file") -> tuple[FormSpec, QSeries]:
    """Parse the q-expansion text format from a string (see ingest_qexp).

    The header lines are read one at a time.  The body, which starts at the
    first nonblank line that is not a header, is checked and converted in
    bulk; only a rejected body is scanned again, to name its first bad line.
    """
    lines = text.splitlines()
    headers: dict[str, str] = {}
    start = len(lines)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            start = lineno - 1
            break
        if ":" not in line:
            raise ValueError(f"line {lineno}: malformed header {line!r}")
        key, _, value = line[1:].partition(":")
        headers[key.strip()] = value.strip()
    body = list(filter(str.strip, lines[start:]))
    rows = len(body)
    joined = _LINE_MARK.join(body)
    del lines, body  # free the line strings before the split makes the tokens
    columns = _body_columns(joined, rows) if rows else ([], [])
    if columns is None:
        raise ValueError(_bad_body_line(text.splitlines(), start))
    in_place, values = columns

    for required in ("weight", "level", "character"):
        if required not in headers:
            raise ValueError(f"missing header '# {required}:'")
    if headers["character"] != "trivial":
        raise ValueError("nontrivial character declared; unsupported")
    try:
        weight = _decimal(headers["weight"])
        level = _decimal(headers["level"])
    except ValueError:
        raise ValueError("weight and level headers must be integers") from None
    if weight % 2:
        raise ValueError("odd weight is unsupported")

    if not rows:
        raise ValueError("empty body")
    if False in in_place:
        pos = in_place.index(False) + 1
        raise ValueError(f"missing index {pos} (body must cover 1..max contiguously)")
    spec = FormSpec(
        weight=weight,
        level=level,
        label=headers.get("label", label_fallback),
        source="file",
    )
    return spec, QSeries((0, *values))


def ingest_qexp(path) -> tuple[FormSpec, QSeries]:
    """Read a q-expansion file.

    Format: header lines '# weight: <int>', '# level: <int>',
    '# character: trivial', optional '# label: <string>', then one
    '<n> <a(n)>' pair per line, ASCII decimal, n contiguous from 1, LF
    line endings.  Gaps, non-integers, odd weight, and nontrivial
    characters are rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return parse_qexp(text, label_fallback=os.path.basename(str(path)))
