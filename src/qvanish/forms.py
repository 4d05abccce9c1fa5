"""Coefficient providers for the classical primitive forms in scope.

Every product form here is one eta product, built by eta_product over Z or
over Z/m: the weight-12 level-1 discriminant form Delta = eta(z)^24 is its
level-1 entry, and the Shimura eta quotients eta(z)^a eta(Nz)^a for N in
{2, 3, 5, 11} are the others.  Delta also has an independent route through
the normalized Eisenstein series, which live here too, and Niebur's formula
gives single values of tau.  A line-oriented q-expansion file format carries
externally supplied forms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .arith import factorize
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
        if self.source.startswith("eta-quotient"):
            n = int(self.source.split(":")[1])
            if n not in ETA_QUOTIENT_LEVELS:
                raise ValueError(f"eta quotient level must be one of {ETA_QUOTIENT_LEVELS}")
            if self.weight != 24 // (n + 1):
                raise ValueError("eta quotient weight is forced to 24/(N+1)")
        if self.weight < 2 or self.weight % 2:
            raise ValueError("weight must be even and >= 2")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.character != "trivial":
            raise ValueError("only the trivial character is supported")


def sigma(n: int, m: int) -> int:
    """Sum of m-th powers of the positive divisors of n, exact.

    Multiplicative: computed as prod over p^e || n of (p^(m(e+1))-1)/(p^m-1),
    or prod (e+1) when m = 0.
    """
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    if m < 0:
        raise ValueError("sigma requires m >= 0")
    out = 1
    for p, e in factorize(n):
        if m == 0:
            out *= e + 1
        else:
            pm = p**m
            out *= (pm ** (e + 1) - 1) // (pm - 1)
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


def _sigma_sieve(bound: int, m: int) -> list[int]:
    # sig[n] = sigma_m(n) for 1 <= n <= bound, by striding each divisor.
    sig = [0] * (bound + 1)
    for d in range(1, bound + 1):
        dm = d**m
        for j in range(d, bound + 1, d):
            sig[j] += dm
    return sig


def eisenstein_coeffs(half_weight: int, bound: int) -> QSeries:
    """Normalized Eisenstein series E_{2k} of weight 2k, k = half_weight >= 2.

    E_{2k} = 1 - (4k/B_{2k}) sum_{n>=1} sigma_{2k-1}(n) q^n.  Each coefficient
    must land in Z; if the normalization -4k/B_{2k} makes some coefficient
    fractional (first at weight 12, where it is 65520/691) this raises rather
    than round.  Weight 2 is excluded: E_2 is only quasi-modular.
    """
    if half_weight < 2:
        raise ValueError("weight 2k must be >= 4")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    c = Fraction(-4 * half_weight) / bernoulli(2 * half_weight)
    sig = _sigma_sieve(bound, 2 * half_weight - 1)
    coeffs = [1]
    for n in range(1, bound + 1):
        num = c.numerator * sig[n]
        q, r = divmod(num, c.denominator)
        if r:
            raise ValueError(
                f"E_{2 * half_weight} coefficient at n={n} is not an integer "
                f"(normalization {c})"
            )
        coeffs.append(q)
    return QSeries(tuple(coeffs))


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


def eta_product_spec(level: int) -> FormSpec:
    """Identity of eta_product(level, ...): delta at level 1, else the eta quotient.

    Raises ValueError for a level outside 1 and ETA_QUOTIENT_LEVELS.
    """
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


def delta_spec() -> FormSpec:
    return eta_product_spec(1)


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


def delta_coefficient(n: int) -> int:
    """tau(n) for a single index, by Niebur's closed form.

    tau(n) = n^4 sigma(n) - 24 sum_{i=1}^{n-1} i^2 (35i^2 - 52in + 18n^2)
    sigma(i) sigma(n-i), with sigma the ordinary divisor sum.  O(n) exact
    big-integer work after an O(n log n) divisor-sum sieve; serves as the
    exact fallback of the residue-lane scan and as a third route to tau.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    sig = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        sig[d::d] += d
    s = 0
    sl = sig.tolist()
    for i in range(1, n):
        s += i * i * (35 * i * i - 52 * i * n + 18 * n * n) * sl[i] * sl[n - i]
    return n**4 * sl[n] - 24 * s


def eta_quotient_coefficient(level: int, n: int) -> int:
    """Exact a(n) of the level-N eta quotient, by rebuilding the product to n.

    O(n^1.5); only the scan's all-residues-zero fallback takes this path.
    """
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
