"""Coefficient providers for the classical primitive forms in scope.

Every product form here is one eta product, built by eta_product over Z or
over Z/m: the weight-12 level-1 discriminant form Delta = eta(z)^24 is its
level-1 entry, and the Shimura eta quotients eta(z)^a eta(Nz)^a for N in
{2, 3, 5, 11} are the others.  Delta also has an independent route through
the normalized Eisenstein series, which live here too.  Single values come
from residue lanes by a CRT lift that Deligne's bound makes exact, with
Niebur's formula for tau and a product rebuild for the eta quotients where
the bound does not reach.  A line-oriented q-expansion file format carries
externally supplied forms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import numpy as np

from .arith import factorize, multiplicative
from .series import (
    QSeries,
    ResidueSeries,
    eta_cube,
    eta_raw,
    exact_divide,
    mul_sparse,
    mul_sparse_mod,
)

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


def _sigma_table(bound: int, m: int) -> list[int]:
    """[0, sigma_m(1), ..., sigma_m(bound)]."""
    return multiplicative(bound, lambda p, e: _sigma_prime_power(p, e, m))


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
    sig = _sigma_table(bound, 2 * half_weight - 1)
    return QSeries((1, *(c.numerator * s for s in sig[1:])))


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


def eta_product(level: int, bound: int, modulus: int | None = None):
    """q prod_{n>=1} (1 - q^n)^a (1 - q^(N*n))^a, a = 24/(N+1), truncated at bound.

    Level N = 1 is the discriminant form Delta = eta(z)^24, with coefficient
    n equal to tau(n); N in {2, 3, 5, 11} gives the Shimura eta quotient
    eta(z)^a eta(Nz)^a of weight a, equal to (Delta(z)/Delta(Nz))^(1/(N+1)).
    The eta prefactors contribute q^(a(1+N)/24) = q^1, so the accumulator
    starts at q.  Then, for each dilation d in (1, N), come a // 3 sparse
    passes with Jacobi's cube expansion of prod (1 - q^(dn))^3 and a % 3 with
    the pentagonal expansion of prod (1 - q^(dn)): 4 + 4 passes for Delta,
    8, 4, 4 and 4 at N = 2, 3, 5 and 11.  Each pass costs O(bound^1.5), and
    there is no power-series division.

    With modulus None the product is exact over Z and returns a QSeries;
    otherwise the same passes run over Z/modulus and return the residue lane
    as a ResidueSeries.
    """
    eta_product_spec(level)  # rejects levels out of scope
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if modulus is None:
        acc, mul = QSeries((0, 1) + (0,) * (bound - 1)), mul_sparse
    else:
        q = np.zeros(bound + 1, dtype=np.int64)
        q[1] = 1
        acc, mul = ResidueSeries(modulus, q), mul_sparse_mod
    cubes, singles = divmod(24 // (level + 1), 3)
    for dilation in (1, level):
        for expansion, count in ((eta_cube, cubes), (eta_raw, singles)):
            if count:
                factor = expansion(bound, dilation)
                for _ in range(count):
                    acc = mul(acc, factor)
    return acc


def delta_eta(bound: int) -> QSeries:
    """The discriminant form q prod (1-q^n)^24; coefficient n is tau(n)."""
    return eta_product(1, bound)


def delta_eta_mod(bound: int, m: int) -> ResidueSeries:
    """delta_eta modulo the odd prime m, built directly in the residue lane."""
    return eta_product(1, bound, m)


def eta_quotient(level: int, bound: int) -> tuple[FormSpec, QSeries]:
    """The level-N eta quotient with its spec, for N in {2, 3, 5, 11}."""
    return eta_product_spec(level), eta_product(level, bound)


def eta_quotient_mod(level: int, bound: int, m: int) -> ResidueSeries:
    """The level-N eta quotient modulo the odd prime m (series only)."""
    return eta_product(level, bound, m)


@lru_cache(maxsize=None)
def _crt_basis(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(M, e): M the product of the moduli, e_i = 1 mod m_i and 0 mod the others."""
    if len(set(moduli)) != len(moduli):
        raise ValueError(f"residue lane moduli {list(moduli)} repeat")
    big_m = prod(moduli)
    return big_m, tuple(big_m // m * pow(big_m // m, -1, m) for m in moduli)


def _deligne_lift(lanes: tuple[ResidueSeries, ...], n: int, weight: int) -> int | None:
    """a(n) of a newform of weight k = weight, from its residue lanes at n, or None.

    Deligne's bound |a(n)| <= d(n) n^((k-1)/2) with d(n) <= 2 sqrt(n) gives
    |a(n)| <= 2 n^(k/2).  When 16 n^k < M^2, M the product of the lane
    moduli, that is 2 |a(n)| < M, so the symmetric CRT lift of the residues
    at n (the representative in (-M/2, M/2]) is a(n) itself.  Otherwise the
    residues do not determine a(n) and this returns None; so does an empty
    lane tuple, whose M is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    short = [lane.modulus for lane in lanes if lane.trunc_bound < n]
    if short:
        raise ValueError(f"residue lanes mod {short} do not cover n = {n}")
    big_m, basis = _crt_basis(tuple(lane.modulus for lane in lanes))
    if 16 * n**weight >= big_m * big_m:
        return None
    x = sum(int(lane.coeffs[n]) * e for lane, e in zip(lanes, basis)) % big_m
    return x - big_m if 2 * x > big_m else x


def delta_coefficient(n: int, lanes: tuple[ResidueSeries, ...] = ()) -> int:
    """tau(n) for a single index: the CRT lift of lanes under Deligne's bound, else Niebur.

    Delta is the weight-12 level-1 newform, so Deligne's bound
    |tau(n)| <= d(n) n^(11/2) holds, and _deligne_lift returns tau(n) from
    the residues at n whenever 16 n^12 < M^2 (n up to about 2.8e4 with the
    three LANE_PRIMES).  Above that, or without lanes, Niebur's closed form

        tau(n) = n^4 sigma(n) - 24 sum_{i=1}^{n-1} i^2 (35i^2 - 52in + 18n^2)
                 sigma(i) sigma(n-i),

    with sigma the ordinary divisor sum, gives it in O(n) exact big-integer
    work after a divisor-sum table.  This is the exact callback of the Delta
    scan and a third route to tau.  It keeps its name, one call per
    all-lanes-zero index, because the benchmark's traced runs count exact
    fallbacks by wrapping it (ROADMAP item A moves them to stage events).
    """
    lifted = _deligne_lift(lanes, n, 12)
    if lifted is not None:
        return lifted
    if n == 1:
        return 1
    sl = _sigma_table(n, 1)
    s = 0
    for i in range(1, n):
        s += i * i * (35 * i * i - 52 * i * n + 18 * n * n) * sl[i] * sl[n - i]
    return n**4 * sl[n] - 24 * s


def eta_quotient_coefficient(
    level: int, n: int, lanes: tuple[ResidueSeries, ...] = ()
) -> int:
    """Exact a(n) of the level-N eta quotient: the CRT lift of lanes, else a rebuild.

    eta(z)^a eta(Nz)^a is the unique normalized newform in S_a(Gamma0(N)),
    so Deligne's bound |a(n)| <= d(n) n^((a-1)/2) holds (Hasse's bound at
    a = 2, N = 11).  Whenever 16 n^a < M^2, M the product of the lane
    moduli, _deligne_lift returns a(n) from the residues at n; with the
    three LANE_PRIMES that covers n up to about 4.8e6 at N = 2 (weight 8)
    and further at the other levels.  Otherwise, or without lanes, the
    product is rebuilt to n, in O(n^1.5).  The scan
    calls this once per all-lanes-zero index; it keeps its name because the
    benchmark's traced runs count exact fallbacks by wrapping it (ROADMAP
    item A moves them to stage events).
    """
    lifted = _deligne_lift(lanes, n, eta_product_spec(level).weight)
    if lifted is not None:
        return lifted
    return eta_quotient(level, n)[1][n]


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


def parse_qexp(text: str, label_fallback: str = "file") -> tuple[FormSpec, QSeries]:
    """Parse the q-expansion text format from a string (see ingest_qexp)."""
    headers: dict[str, str] = {}
    body: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if body:
                raise ValueError(f"line {lineno}: header after body")
            if ":" not in line:
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            key, _, value = line[1:].partition(":")
            headers[key.strip()] = value.strip()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<n> <a(n)>', got {line!r}")
        try:
            n, an = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer entry in {line!r}") from None
        body.append((n, an))

    for required in ("weight", "level", "character"):
        if required not in headers:
            raise ValueError(f"missing header '# {required}:'")
    if headers["character"] != "trivial":
        raise ValueError("nontrivial character declared; unsupported")
    try:
        weight = int(headers["weight"])
        level = int(headers["level"])
    except ValueError:
        raise ValueError("weight and level headers must be integers") from None
    if weight % 2:
        raise ValueError("odd weight is unsupported")

    if not body:
        raise ValueError("empty body")
    coeffs = [0] * (len(body) + 1)
    for pos, (n, an) in enumerate(body, start=1):
        if n != pos:
            raise ValueError(f"missing index {pos} (body must cover 1..max contiguously)")
        coeffs[n] = an
    spec = FormSpec(
        weight=weight,
        level=level,
        label=headers.get("label", label_fallback),
        source="file",
    )
    return spec, QSeries(tuple(coeffs))


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
