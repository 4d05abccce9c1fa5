"""Exact integer power series truncated at an explicit bound.

Three carriers: dense QSeries over arbitrary-precision integers, SparseSeries
for expansions with few terms (Euler's pentagonal expansion of the Euler
product and Jacobi's expansion of its cube), and ResidueSeries holding the
same coefficients modulo a fixed word-size prime.  The residue lane exists so
a scan can certify a(n) != 0 from a single nonzero residue; only an
all-lanes-zero index needs exact arithmetic.

Dense-by-sparse products run in one ring, Z/m, on int64 arrays
(mul_sparse_mod); a lane's first product, of two sparse factors, comes from
their term lists alone (mul_sparse_sparse_mod) and seeds the dense passes.
Exact series are lifted from such lanes (see forms.eta_product).
mul_sparse, the same product over Z by the schoolbook mul, is the reference
both are tested against.

All values are immutable after construction and every operation is a pure
function, so anything here may be called from concurrent code.  Truncation
bounds are always explicit: operations on mismatched bounds raise rather than
resize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import is_prime

# Residue-lane moduli, fixed at build time: odd primes below 2^31.  A sparse
# product over Z/m accumulates unreduced terms c * a(n) with |a(n)| < m, so its
# partial sums stay below (sum |c| + 1) * m; for Jacobi's cube expansion to a
# bound B, sum |c| is about 2B, so even the full Lehmer bound with m = 2^31 - 1
# stays near 2^54, far inside int64.
LANE_PRIMES = (998244353, 1004535809, 2147483647)


def is_lane_modulus(m: int) -> bool:
    """The one rule for a residue modulus, of a lane or of coeffs --mod: an odd prime < 2^31."""
    return m % 2 == 1 and m < 2**31 and is_prime(m)


@dataclass(frozen=True)
class QSeries:
    """Integer power series known exactly for indices 0..trunc_bound."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("trunc_bound must be >= 1")

    @property
    def trunc_bound(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"QSeries(bound={self.trunc_bound}, coeffs=[{head}{tail}])"

    def __add__(self, other: QSeries) -> QSeries:
        _check_bounds(self, other)
        return QSeries(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: QSeries) -> QSeries:
        _check_bounds(self, other)
        return QSeries(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: QSeries) -> QSeries:
        return mul(self, other)

    def __pow__(self, e: int) -> QSeries:
        return power(self, e)


@dataclass(frozen=True)
class SparseSeries:
    """Few-term series as sorted (index, coefficient) pairs, indices <= trunc_bound."""

    terms: tuple[tuple[int, int], ...]
    trunc_bound: int

    def __post_init__(self):
        if self.trunc_bound < 1:
            raise ValueError("trunc_bound must be >= 1")
        prev = -1
        for idx, c in self.terms:
            if idx <= prev:
                raise ValueError("term indices must be strictly increasing")
            if idx > self.trunc_bound:
                raise ValueError("term index exceeds trunc_bound")
            if c == 0:
                raise ValueError("zero coefficients are not stored")
            prev = idx

    def densify(self) -> QSeries:
        dense = [0] * (self.trunc_bound + 1)
        for idx, c in self.terms:
            dense[idx] = c
        return QSeries(tuple(dense))


@dataclass(frozen=True)
class ResidueSeries:
    """Coefficients reduced modulo an odd word-size prime, as an int64 array.

    The array is frozen by convention (never written after construction).
    """

    modulus: int
    coeffs: np.ndarray

    def __post_init__(self):
        m = self.modulus
        if not is_lane_modulus(m):
            raise ValueError("modulus must be an odd prime below 2^31")
        if self.coeffs.dtype != np.int64:
            raise ValueError("residue coefficients must be int64")
        if len(self.coeffs) < 2:
            raise ValueError("trunc_bound must be >= 1")
        if int(self.coeffs.min()) < 0 or int(self.coeffs.max()) >= m:
            raise ValueError("residues must lie in [0, modulus)")

    @property
    def trunc_bound(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"ResidueSeries(modulus={self.modulus}, bound={self.trunc_bound})"


def _check_bounds(a, b):
    if a.trunc_bound != b.trunc_bound:
        raise ValueError(
            f"truncation bounds differ: {a.trunc_bound} vs {b.trunc_bound}"
        )


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Product truncated at the common bound.  Schoolbook O(B^2), exact."""
    _check_bounds(a, b)
    bound = a.trunc_bound
    out = [0] * (bound + 1)
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs):
        if ai:
            seg = bc[: bound + 1 - i]
            out[i:] = [x + ai * y for x, y in zip(out[i:], seg)]
    return QSeries(tuple(out))


def mul_sparse(a: QSeries, s: SparseSeries) -> QSeries:
    """a * s over Z; mul skips the zeros of s, so this costs O(bound * len(s.terms))."""
    return mul(s.densify(), a)


def power(a: QSeries, e: int) -> QSeries:
    """a^e by binary exponentiation; the result is strategy-independent."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    result = None
    base = a
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def exact_divide(a: QSeries, d: int) -> QSeries:
    """Coefficientwise division by d, raising if any coefficient is not divisible."""
    out = []
    for n, c in enumerate(a.coeffs):
        q, r = divmod(c, d)
        if r:
            raise ValueError(f"coefficient at index {n} is not divisible by {d}")
        out.append(q)
    return QSeries(tuple(out))


def eta_raw(bound: int, dilation: int = 1) -> SparseSeries:
    """Euler's pentagonal expansion of prod_{n>=1} (1 - q^(dilation*n)), truncated.

    Terms sit at dilation times the generalized pentagonal numbers m(3m-1)/2
    and m(3m+1)/2 with coefficient (-1)^m, so only Theta(sqrt(bound)) of
    them survive.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    terms = {0: 1}
    m = 1
    while True:
        g1 = dilation * (m * (3 * m - 1) // 2)
        g2 = dilation * (m * (3 * m + 1) // 2)
        if g1 > bound:
            break
        sign = -1 if m % 2 else 1
        terms[g1] = sign
        if g2 <= bound:
            terms[g2] = sign
        m += 1
    return SparseSeries(tuple(sorted(terms.items())), bound)


def eta_cube(bound: int, dilation: int = 1) -> SparseSeries:
    """Jacobi's expansion of prod_{n>=1} (1 - q^(dilation*n))^3, truncated.

    prod (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m+1) q^(m(m+1)/2) (Jacobi,
    Fundamenta nova, 1829): one sparse factor with Theta(sqrt(bound)) terms
    stands for three pentagonal ones.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    terms = []
    m = 0
    while (idx := dilation * (m * (m + 1) // 2)) <= bound:
        terms.append((idx, (-1) ** m * (2 * m + 1)))
        m += 1
    return SparseSeries(tuple(terms), bound)


def reduce_mod(a: QSeries, m: int) -> ResidueSeries:
    """Coefficientwise residues of a modulo the odd prime m."""
    arr = np.fromiter((c % m for c in a.coeffs), dtype=np.int64, count=len(a.coeffs))
    return ResidueSeries(m, arr)


def mul_sparse_mod(a: ResidueSeries, s: SparseSeries) -> ResidueSeries:
    """a * s over Z/m, m = a.modulus; reduce_mod of mul_sparse on the lifts.

    A coefficient other than +-1 multiplies its shifted copy into one scratch
    array allocated per product.  Every copy accumulates unreduced before the
    final reduction; the guard keeps those partial sums, bounded by
    (sum |c| + 1) * m, inside int64.
    """
    _check_bounds(a, s)
    m = a.modulus
    if (sum(abs(c) for _, c in s.terms) + 1) * m >= 2**62:
        raise OverflowError("sparse accumulation would overflow int64")
    bound = a.trunc_bound
    out = np.zeros(bound + 1, dtype=np.int64)
    tmp = None  # allocated at the first coefficient other than +-1
    for idx, c in s.terms:
        seg = a.coeffs[: bound + 1 - idx]
        if c == 1:
            out[idx:] += seg
        elif c == -1:
            out[idx:] -= seg
        else:
            if tmp is None:
                tmp = np.empty(bound + 1, dtype=np.int64)
            out[idx:] += np.multiply(seg, c, out=tmp[: len(seg)])
    out %= m
    return ResidueSeries(m, out)


def mul_sparse_sparse_mod(f: SparseSeries, g: SparseSeries, m: int) -> ResidueSeries:
    """f * g over Z/m as a residue lane; reduce_mod of mul_sparse on the lifts.

    Each term of f scatters its multiple of g's terms into the lane at once,
    with mul_sparse_mod's cases for a coefficient of +-1 and any other.  The
    targets of one term are distinct, so a fancy-index += is exact, and a
    step allocates only O(len(g.terms)).  Every unreduced sum is at most
    sum |c_f| * sum |c_g|, which the guard keeps inside int64.
    """
    _check_bounds(f, g)
    if sum(abs(c) for _, c in f.terms) * sum(abs(c) for _, c in g.terms) >= 2**62:
        raise OverflowError("sparse accumulation would overflow int64")
    bound = f.trunc_bound
    out = np.zeros(bound + 1, dtype=np.int64)
    g_idx, g_coef = (np.fromiter((t[k] for t in g.terms), np.int64, len(g.terms)) for k in (0, 1))
    tmp = np.empty(len(g.terms), dtype=np.int64)
    end = len(g.terms)
    for idx, c in f.terms:
        # g.terms[:end] are the terms of g that idx keeps within the bound
        while end and g.terms[end - 1][0] > bound - idx:
            end -= 1
        at, seg = g_idx[:end], g_coef[:end]
        if c == 1:
            out[idx:][at] += seg
        elif c == -1:
            out[idx:][at] -= seg
        else:
            out[idx:][at] += np.multiply(seg, c, out=tmp[:end])
    out %= m
    return ResidueSeries(m, out)
