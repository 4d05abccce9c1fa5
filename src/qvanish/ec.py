"""Newform coefficients from rational elliptic curves by point counting.

For a model minimal at p, one count gives a_p at every prime: a_p = p -
#{affine points of the model mod p}.  At a good prime that is p + 1 -
#E(F_p); at a bad prime the reduction has one singular point, so it is
p - #E_ns(F_p), which is +1 (split multiplicative), -1 (nonsplit) or 0
(additive).  The exact a_p of a list of primes comes from one router, _aps:

- Good primes above BSGS_CROSSOVER, all in one call (_lane_aps): Shanks'
  baby-step giant-step in int64 numpy lanes, one lane per prime.  A lane
  tries a few points P, each of E or of its quadratic twist, for the orders
  N in the Hasse interval [p+1-2*sqrt(p), p+1+2*sqrt(p)] with N*P = O; a
  point that allows one N fixes #E(F_p) by itself (Mestre's method; Cohen,
  GTM 138; Schoof 1995, section 3).  That is O(p^(1/4)) group operations
  per point, and every lane takes the same ones, so the interpreter is paid
  once per step of a round of primes (LANES_PER_ROUND or more where the
  table has them), not once per prime: about 15-25 us per prime from 2^9
  to 2^18, against about 2-4 ms for a lane on its own (ap_good above the
  crossover).
- Bad primes from 5 on, by reduction type: 0 where p | c4, else the
  Legendre symbol (-c6 / p).
- Every other odd prime, and any good prime none of whose lane's points
  allows one N: the character sum, O(p), all of them in one _char_sums
  call.  The substitution u = 2y + a1*x + a3 turns the model into u^2 =
  4x^3 + b2*x^2 + 2*b4*x + b6, so each x contributes 1 + chi(g(x)) points
  with chi the quadratic character.  A pass lays the x of many primes end
  to end, so it costs about 25 us plus 20-45 ns per x: the 96 odd primes up
  to BSGS_CROSSOVER (22546 x) take about 1.0-1.2 ms together, against
  about 2 ms one pass each.
- p = 2: the four pairs (x, y) are tried.

prime_table holds the exact a_p of every prime, for coeffs and mf, which
print a(n).  A scan needs to know only where a_p = 0, and scan_table
decides that by theorem at every good prime p >= 5, with no point count:

- A CM curve (WeierstrassCurve.cm_discriminant, D): at p not dividing D,
  a_p = 0 exactly when the Legendre symbol (D / p) is -1 (Deuring), all of
  them by one batched power (_deuring).
- Any other curve: one x-only ladder per prime (_open_primes).  The point
  P1 with x(P1) = 1, of E or of its quadratic twist, proves a_p != 0 where
  [p + 1]P1 != O.  The few primes it leaves open take one more ladder call
  (_settle), for a second point P2 and the orders of both, which divide
  p + 1: a_p != 0 where [p + 1]P2 != O, and a_p = 0 where the lcm of the
  two orders exceeds 2*sqrt(p) (Mestre's argument).

2, 3, the bad primes, the primes dividing D and any prime left undecided
get their exact a_p from _aps.  Primes from 2^31 on are refused: the lanes
hold residues below p in int64, which keeps a product of two below 2^62
only while p < 2^31, and the character sum there would take O(p) time and
memory.  Models that may not be minimal are refused (see
WeierstrassCurve.level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import isqrt
from typing import NamedTuple

import numpy as np

from .arith import factorize, is_prime, sieve_primes, smallest_prime_factors
from .hecke import PrimeEigenvalues


# The 13 rational j-invariants of curves with complex multiplication, each
# with the discriminant D of its CM order (Silverman, Advanced Topics in the
# Arithmetic of Elliptic Curves, Appendix A, section 3).
CM_J_INVARIANTS = {
    0: -3, 1728: -4, -3375: -7, 8000: -8, -32768: -11, 54000: -12, 287496: -16,
    -884736: -19, -12288000: -27, 16581375: -28, -884736000: -43,
    -147197952000: -67, -262537412640768000: -163,
}


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with integer a_i."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str = ""

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("discriminant is zero: not an elliptic curve")

    @cached_property
    def b_invariants(self) -> tuple[int, int, int]:
        """(b2, b4, b6)."""
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6

    @cached_property
    def c_invariants(self) -> tuple[int, int]:
        """(c4, c6); y^2 = x^3 - 27*c4*x - 54*c6 is the curve over F_p for p >= 5."""
        b2, b4, b6 = self.b_invariants
        return b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6

    @cached_property
    def discriminant(self) -> int:
        c4, c6 = self.c_invariants
        return (c4**3 - c6**2) // 1728

    @cached_property
    def cm_discriminant(self) -> int | None:
        """D of the order by which the curve has complex multiplication, else None.

        The j-invariant c4^3 / disc is one of CM_J_INVARIANTS exactly when the
        curve has CM; each is compared as c4^3 = j * disc, in integers.
        """
        c4 = self.c_invariants[0]
        return next((d for j, d in CM_J_INVARIANTS.items() if c4**3 == j * self.discriminant), None)

    @cached_property
    def level(self) -> int:
        """Radical of |disc|: the conductor's prime support for a minimal model.

        A model that may not be minimal is refused with ValueError: one with a
        prime p where v_p(disc) >= 12, v_p(c4) >= 4 and v_p(c6) >= 6.  For
        p >= 5 that test is exact (Kraus); at p = 2 and 3 it is necessary but
        not sufficient, so some minimal models are refused there too.  The
        discriminant is factorized once per curve object.
        """
        c4, c6 = self.c_invariants
        level = 1
        for p, e in factorize(abs(self.discriminant)):
            if e >= 12 and c4 % p**4 == 0 and c6 % p**6 == 0:
                raise ValueError(
                    f"the model may not be minimal at p={p} (v_p of disc, c4, c6 "
                    "at least 12, 4, 6); give a minimal model"
                )
            level *= p
        return level


# Minimal models of the two counterexample curves, by Cremona label.
FIXTURES = {
    "37a1": WeierstrassCurve(0, 0, 1, -1, 0, label="37a1"),
    "53a1": WeierstrassCurve(1, -1, 1, 0, 0, label="53a1"),
}


def parse_curve(text: str) -> WeierstrassCurve:
    """Curve from 'a1,a2,a3,a4,a6' (five comma-separated ASCII decimal integers).

    The label is the text without surrounding whitespace; any other
    non-printable character is refused, so the label fits one header line.
    """
    text = text.strip()
    if not (text.isascii() and text.isprintable()):
        raise ValueError("curve coefficients must be ASCII integers a1,a2,a3,a4,a6")
    if "_" in text:
        raise ValueError("curve coefficients must be decimal integers, without '_' separators")
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("expected five comma-separated integers a1,a2,a3,a4,a6")
    a = [int(part.strip()) for part in parts]
    return WeierstrassCurve(*a, label=text)


# A character-sum pass lays out at most this many x, or the F_p of one wider
# prime, so its int64 temporaries stay within those of a sum at one prime.
CHAR_SUM_WIDTH = 2**16


def _char_sums(curve: WeierstrassCurve, primes: list[int]) -> list[int]:
    """[sum over x in F_p of chi(4x^3 + b2*x^2 + 2*b4*x + b6) for p in primes], odd p only.

    Each pass lays the ranges F_p of consecutive primes end to end, reduces
    each entry by its own p, and sums each range with np.add.reduceat, so
    the interpreter is paid once per pass, not once per prime: the 96 odd
    primes up to BSGS_CROSSOVER take one pass.
    """
    b2, b4, b6 = curve.b_invariants
    sums = []
    while primes:
        cut = max(1, int(np.searchsorted(np.cumsum(primes), CHAR_SUM_WIDTH, side="right")))
        batch, primes = primes[:cut], primes[cut:]
        size = np.array(batch, dtype=np.int64)
        start = np.cumsum(size) - size
        base = np.repeat(start, size)  # where the range of each entry's prime starts
        p = np.repeat(size, size)
        x = np.arange(len(p)) - base

        def reduced(c):
            return np.repeat(np.array([c % q for q in batch], dtype=np.int64), size)

        # Horner with two reductions: every partial value stays below 6p^2,
        # exact in int64 for p < 10^9.
        g = ((4 * x + reduced(b2)) * x + reduced(2 * b4)) % p
        g = (g * x + reduced(b6)) % p
        # w[base + v] = #{u : u^2 = v}: 1 at 0, 2 at nonzero squares, 0 elsewhere.
        w = np.zeros(len(p), dtype=np.int8)
        w[base + x * x % p] = 2
        w[start] = 1
        sums += (np.add.reduceat(w[base + g], start, dtype=np.int64) - size).tolist()
    return sums


# Above this prime a good prime's a_p goes by the lanes; at and below it, by
# the character sum.  prime_table to 14000 for 37a1 and 53a1 (CPU time, 80
# runs of each crossover alternating in one process; Python 3.11, numpy
# 2.4.6, shared 2-core x86-64 host) had medians of 30.7 and 30.9 ms at 255,
# 30.5 and 31.1 at 383, 31.1 and 31.5 at 511, and 32.1 and 32.6 at 1023:
# above 512 a lane is cheaper than a character sum, and below it they cost
# about the same.  511 is kept over the tied 255 and 383 because there the
# round's m, taken from primes near 14000, leaves the lane of p = 277 open
# for the CM curve 27a1.
BSGS_CROSSOVER = 511
# Points tried on a lane before its prime falls back to the character sum.
BSGS_POINTS = 8
# Chunks of primes of one bit length join a round until it has this many
# lanes (see _lane_aps).  prime_table to 14000 for 37a1 and 53a1 (medians of
# 100 alternating runs, as above, on a busier host) took 37.3 and 37.6 ms at
# 512 lanes, 34.3 and 34.8 at 1024, and 34.4 and 34.6 at 2048, which makes
# the same rounds as 1024 to 20000; to 2*10^5, 1024, 2048 and 4096 tied
# within the noise (10 runs).
LANES_PER_ROUND = 1024

# The lanes: int64 arrays with one entry per prime p < 2^31.  Every operand is
# reduced into [0, p), so a product is below 2^62 and a sum or difference of
# two products stays inside int64; each product is reduced before it is used.


def _residues(c: int, p):
    """c mod p, lane by lane, for an integer c of any size and sign.

    Horner over the 31-bit limbs of |c| from the top: each partial value is
    below p * 2^31 <= 2^62 before it is reduced.
    """
    r = np.zeros_like(p)
    for shift in reversed(range(0, abs(c).bit_length(), 31)):
        r = ((r << 31) + ((abs(c) >> shift) & (2**31 - 1))) % p
    return -r % p if c < 0 else r


def _pow(base, exp, p):
    """base^exp mod p entrywise; exp >= 0 broadcasts against base."""
    result = np.ones(np.broadcast_shapes(base.shape, exp.shape), dtype=np.int64)
    while exp.any():
        result = np.where(exp & 1 == 1, result * base % p, result)
        base = base * base % p
        exp = exp >> 1
    return result


def _inverses(z, p):
    """z <- 1/z mod p in place, for a nonzero (k, lanes) array z.

    One power per lane: Montgomery's trick along the k rows.
    """
    prefix = z.copy()
    for i in range(1, len(z)):
        prefix[i] = prefix[i - 1] * z[i] % p
    inv = _pow(prefix[-1], p - 2, p)
    for i in range(len(z) - 1, 0, -1):
        inv, z[i] = inv * z[i] % p, inv * prefix[i - 1] % p
    z[0] = inv


def _double(P, a, p):
    """2P in projective (X : Y : Z) on y^2 = x^3 + a*x + b; O is (0 : Y : 0)."""
    X, Y, Z = P
    w = (a * (Z * Z % p) + 3 * (X * X % p)) % p
    s = Y * Z % p
    B = X * Y % p * s % p
    h = (w * w - 8 * B) % p
    ss = s * s % p
    R = (
        2 * (h * s % p) % p,
        (w * ((4 * B - h) % p) - 8 * (Y * Y % p * ss % p)) % p,
        8 * (s * ss % p) % p,
    )
    if Z.all():
        return R
    return tuple(np.where(Z == 0, c, d) for c, d in zip(P, R))


def _add(P, Q, a, p):
    """P + Q in projective coordinates, every case: O, P = Q and P = -Q included."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    y1z2 = Y1 * Z2 % p
    x1z2 = X1 * Z2 % p
    z1z2 = Z1 * Z2 % p
    u = (Y2 * Z1 - y1z2) % p
    v = (X2 * Z1 - x1z2) % p
    vv = v * v % p
    vvv = v * vv % p
    r = vv * x1z2 % p
    A = (u * u % p * z1z2 - vvv - 2 * r) % p
    R = (v * A % p, (u * ((r - A) % p) - vvv * y1z2) % p, vvv * z1z2 % p)
    # Every exception has equal x, so v = 0; the formula itself gives P + (-P) = O.
    if v.all():
        return R
    o1, o2 = Z1 == 0, Z2 == 0
    R = tuple(np.where(o1, q, np.where(o2, c, e)) for c, q, e in zip(P, Q, R))
    # P = Q is rare, so only those lanes are doubled
    same = ((v == 0) & (u == 0) & ~o1 & ~o2).nonzero()[0]
    if len(same):
        for c, d in zip(R, _double(tuple(c[same] for c in P), a[same], p[same])):
            c[same] = d
    return R


def _mul(n, table, a, p):
    """n*P for n >= 0 lane by lane, from the rows table[c][j - 1] of jP, j = 1..k.

    Horner in base 2^w, with w the largest that has 2^w - 1 <= k: w
    doublings and one addition per digit.
    """
    w = (len(table[0]) + 1).bit_length() - 1
    lanes = np.arange(len(n))
    R = (np.zeros_like(n), np.ones_like(n), np.zeros_like(n))
    top = (int(n.max()).bit_length() - 1) // w * w
    for shift in range(top, -1, -w):
        for _ in range(w if shift < top else 0):  # R is O until the top digit
            R = _double(R, a, p)
        d = (n >> shift) & (2**w - 1)
        S = _add(R, tuple(c[np.maximum(d, 1) - 1, lanes] for c in table), a, p)
        R = tuple(np.where(d > 0, s, c) for s, c in zip(S, R))
    return R


def _walk(P, step, a, p):
    """P, P + step, P + 2*step, ..."""
    while True:
        yield P
        P = _add(P, step, a, p)


def _affine(points, k, p):
    """(x, y, at_infinity) of the first k points, as (k, lanes) arrays."""
    X, Y, Z = (np.empty((k, len(p)), dtype=np.int64) for _ in range(3))
    for i, P in zip(range(k), points):
        X[i], Y[i], Z[i] = P
    inf = Z == 0
    Z[inf] = 1
    _inverses(Z, p)
    X *= Z
    X %= p
    Y *= Z
    Y %= p
    return X, Y, inf


def _annihilators(P, a, p, lo, span, m):
    """N: the orders N in [lo, lo + span] that the point P allows, lane by lane.

    N[:, l] holds every N in the interval with N*P = O, one row per giant
    step, with 0 in a row without one.  Where P has order at most 2m, the
    column is all 0: such a point is not used.

    The baby steps jP, j = 1..m, are taken in projective coordinates and then
    made affine, one inverse per lane (Montgomery's trick).  The order of P is
    at most 2m exactly when jP = O, y(jP) = 0 or x(jP) = x(j'P) for some
    j' < j <= m.  Otherwise each window [c-m, c+m] holds at most one N with
    N*P = O, and it shows as cP = O or cP = -kP for k = N - c in [-m, m]: a
    match of x(cP) among the baby steps, with the sign of y picking k.  Only
    these lanes take giant steps, made affine in the same way.
    """
    bx, by, binf = _affine(_walk(P, P, a, p), m, p)
    small = (binf | (by == 0)).any(0)
    for j in range(1, m):
        small |= (bx[:j] == bx[j]).any(0)
    step = 2 * m + 1
    N = np.zeros((int((span // step).max()) + 1, len(p)), dtype=np.int64)
    big = (~small).nonzero()[0]
    if not len(big):
        return N
    bx, by, P, a, p, lo, span = (v[..., big] for v in (bx, by, np.stack(P), a, p, lo, span))
    ones = np.broadcast_to(np.int64(1), bx.shape)
    giant_step = _add(_double((bx[-1], by[-1], ones[-1]), a, p), tuple(P), a, p)
    giants = _walk(_mul(lo + m, (bx, by, ones), a, p), giant_step, a, p)
    gx, gy, ginf = _affine(giants, len(N), p)
    # k: cP = -kP (N = c + k) or, with y equal, cP = kP (N = c - k)
    k = np.zeros_like(gx)
    for i in range(m):
        k[gx == bx[i]] = i + 1
    del gx
    k[ginf] = 0
    k[(k > 0) & (gy == by[np.maximum(k, 1) - 1, np.arange(len(big))])] *= -1
    found = lo + m + step * np.arange(len(N))[:, None]
    found += k
    found[((k == 0) & ~ginf) | (found > lo + span)] = 0
    N[:, big] = found
    return N


def _baby_steps(p: int) -> int:
    """m with 2m + 1 > sqrt(2 * Hasse width): baby and giant steps balance."""
    return isqrt(isqrt(4 * p)) + 1


def _short_model(curve: WeierstrassCurve, primes: list[int]):
    """Lanes p, a, b of y^2 = x^3 + a*x + b, a = -27*c4 and b = -54*c6 mod p."""
    c4, c6 = curve.c_invariants
    p = np.array(primes, dtype=np.int64)
    return p, _residues(-27 * c4, p), _residues(-54 * c6, p)


class _Lanes(NamedTuple):
    """Open lanes, one column per prime p.

    a is the short model's coefficient and [lo, lo + span] the Hasse
    interval.  x and r give the lane's points, one row each, and t counts
    the points it has used.
    """

    p: np.ndarray
    a: np.ndarray
    lo: np.ndarray
    span: np.ndarray
    x: np.ndarray
    r: np.ndarray
    t: np.ndarray

    @classmethod
    def new(cls, curve: WeierstrassCurve, primes: list[int]) -> _Lanes:
        """Lanes for primes, none of whose points is used yet."""
        p, a, b = _short_model(curve, primes)
        span = np.array([2 * isqrt(4 * q) for q in primes], dtype=np.int64)
        # f has at most three roots, and where a = 0 the point at x = 0 is a
        # flex, of order 3, and is dropped; so these x give BSGS_POINTS points
        xs = np.arange(BSGS_POINTS + 4)[:, None]
        f = (xs**3 + a * xs + b) % p
        nonzero = f != 0
        nonzero[0] &= a != 0
        first = nonzero & (nonzero.cumsum(0) <= BSGS_POINTS)
        x = first.T.nonzero()[1].reshape(len(p), BSGS_POINTS).T
        r = np.take_along_axis(f, x, 0)
        return cls(p, a, p + 1 - span // 2, span, x, r, np.zeros_like(p))

    def step(self, found: dict[int, int]) -> _Lanes:
        """Each lane takes one point in its first step, two in its second, the rest in its third.

        Every point is a column of one _annihilators call.  found gets the
        lanes with a point that allows one N; the rest return while they
        have points left.
        """
        uses = np.minimum(np.where(self.t < 2, self.t + 1, BSGS_POINTS), BSGS_POINTS - self.t)
        lane = np.repeat(np.arange(len(self.p)), uses)  # the lane of each column
        nth = np.arange(len(lane)) - (np.cumsum(uses) - uses)[lane]
        row = self.t[lane] + nth
        p, lo, span = self.p[lane], self.lo[lane], self.span[lane]
        r = self.r[row, lane]
        r2 = r * r % p
        point = (self.x[row, lane] * r % p, r2, np.ones_like(p))
        N = _annihilators(
            point, self.a[lane] * r2 % p, p, lo, span, _baby_steps(int(p.max()))
        )
        one = (N > 0).sum(0) == 1
        order = N.max(0)
        # a twist point of order N' allows N = 2p + 2 - N' = 2*lo + span - N'
        order = np.where(_pow(r, (p - 1) // 2, p) != 1, 2 * lo + span - order, order)
        found.update(zip(p[one].tolist(), (p + 1 - order)[one].tolist()))
        settled = np.zeros(len(self.p), dtype=bool)
        settled[lane[one]] = True
        t = self.t + uses
        more = ~settled & (t < BSGS_POINTS)
        return _Lanes(*(f[..., more] for f in self._replace(t=t)))


def _rounds(primes: list[int]) -> list[list[int]]:
    """primes in chunks of one bit length, joined until a round holds LANES_PER_ROUND.

    A last round with fewer joins the one before it, so a table to 20000 is
    one round; from 2^14 on a chunk is wider than that and is a round of its own.
    """
    rounds = []
    for _, chunk in groupby(primes, key=int.bit_length):
        if not rounds or len(rounds[-1]) >= LANES_PER_ROUND:
            rounds.append([])
        rounds[-1] += chunk
    if len(rounds) > 1 and len(rounds[-1]) < LANES_PER_ROUND:
        last = rounds.pop()
        rounds[-1] += last
    return rounds


def _lane_aps(curve: WeierstrassCurve, primes: list[int]) -> dict[int, int]:
    """a_p at good primes BSGS_POINTS + 4 <= p < 2^31 by baby-step giant-step, one lane each.

    Works on the short model y^2 = x^3 + a*x + b, a = -27*c4, b = -54*c6.  A
    lane takes x = 0, 1, 2, ... with r = x^3 + a*x + b nonzero, and (x*r, r^2)
    is a point of y^2 = X^3 + a*r^2*X + b*r^3: the curve itself when r is a
    square, its quadratic twist when not, and no square root is taken.  Where
    a = 0 (j = 0) the point at x = 0 is a flex, of order 3, and is skipped.
    #E(F_p) is among the orders N in the Hasse interval that a point allows
    (a twist point of order N' allows 2p + 2 - N'), so a point that allows
    one N alone gives #E(F_p) = N.  A point of order at most 2m is passed
    over, and a lane none of whose BSGS_POINTS points allows one N is left
    out of the result.

    Primes enter in the rounds of _rounds.
    Every lane of a round takes the same group operations, with the m of the
    round's largest prime: any m works for a lane, as long as the giant
    steps cover the Hasse interval.  A step costs about 1.7 ms plus 8 us per
    point, and most lanes are settled by their first point; so a round takes
    at most three steps: a lane takes one point in its first step, two in
    its second and all it has left in its third.  Every point in the second
    step would cost 7 points a lane where most need one: the 67 lanes of
    37a1 that one point leaves open to 14000 took 5.6 ms so, 3.3 ms with two
    points each and 2.2 ms with one (best of 15).
    """
    found: dict[int, int] = {}
    for chunk in _rounds(primes):
        lanes = _Lanes.new(curve, chunk)
        while len(lanes.p):
            lanes = lanes.step(found)
    return found


def _ladder(a, b, p, n):
    """(X : Z) of x([n]P), lane by lane, for the P with x(P) = 1 on y^2 = x^3 + a*x + b.

    [n]P = O exactly where Z = 0 and X != 0; a lane at (0 : 0) is no
    evidence either way.  The x-only Montgomery ladder of Brier and Joye
    (2002): R0 = O = (1 : 0) and R1 = P, whose difference stays P, take one
    step per bit of n from the top bit of the largest n, so a lane's
    leading zero bits keep (O, P).  Each step adds R0 + R1, with x(P) = 1
    as the difference, and doubles the one the bit keeps; neither formula
    asks for y, so P may lie on E or on its quadratic twist.  Residues are
    below p < 2^31, and every value stays below 2^63: a product of two
    residues, or a small constant times one (4*Z, 8*b), is reduced before
    it is multiplied again, and at most two products are added or
    subtracted before a reduction.
    """
    X0, Z0, X1, Z1 = np.ones_like(p), np.zeros_like(p), np.ones_like(p), np.ones_like(p)
    b4 = 4 * b % p
    b8 = 2 * b4 % p
    for i in reversed(range(int(n.max(initial=0)).bit_length())):
        bit = (n >> i) & 1 == 1
        # R0 + R1 = ((X0X1 - aZ0Z1)^2 - 4bZ0Z1(X0Z1 + X1Z0) : (X0Z1 - X1Z0)^2)
        u = Z0 * Z1 % p
        s = (X0 * X1 - a * u % p) % p
        v, w = X0 * Z1 % p, X1 * Z0 % p
        XS = (s * s - b4 * u % p * ((v + w) % p)) % p
        ZS = (v - w) ** 2 % p
        # 2R = ((X^2 - aZ^2)^2 - 8bXZ^3 : 4Z(X^3 + aXZ^2 + bZ^3))
        X, Z = np.where(bit, X1, X0), np.where(bit, Z1, Z0)
        xx, zz = X * X % p, Z * Z % p
        zzz = zz * Z % p
        s = (xx - a * zz % p) % p
        XD = (s * s - b8 * (X * zzz % p)) % p
        ZD = 4 * Z % p * ((xx * X + (a * (X * zz % p) + b * zzz) % p) % p) % p
        X0, Z0 = np.where(bit, XS, XD), np.where(bit, ZS, ZD)
        X1, Z1 = np.where(bit, XD, XS), np.where(bit, ZD, ZS)
    return X0, Z0


def _open_primes(curve: WeierstrassCurve, primes: list[int]) -> tuple[list[int], list[int]]:
    """(nonzero, open): the ladder's verdicts at the good primes 5 <= p < 2^31 of primes.

    a_p = 0 exactly when #E(F_p) = p + 1, and the quadratic twist then has
    p + 1 points too (Mestre's argument; Cohen, GTM 138).  The short model's
    x = 1 is the x of a point P1 of E or of the twist, so [p + 1]P1 != O
    proves a_p != 0.  One ladder runs per round of _rounds.  A prime where
    it reaches O is open: every a_p = 0 is among them, and a few a_p != 0
    whose P1 has order dividing p + 1.  A prime whose lane is (0 : 0) is in
    neither list.
    """
    nonzero, left = [], []
    for chunk in _rounds(primes):
        p, a, b = _short_model(curve, chunk)
        X, Z = _ladder(a, b, p, p + 1)
        nonzero += p[Z != 0].tolist()
        left += p[(Z == 0) & (X != 0)].tolist()
    return nonzero, left


def _order_lanes(p, spf) -> tuple[list[int], list[int], list[int]]:
    """(lane, q, d): one entry for each prime power d = q^i dividing p[lane] + 1.

    p + 1 = 2m with m <= bound, so spf, the smallest prime factors to the
    largest m, factors it.
    """
    lane, qs, ds = [], [], []
    for i, m in enumerate(((p + 1) // 2).tolist()):
        factors = [2]  # ascending, so the powers of one q are consecutive
        while m > 1:
            factors.append(spf.item(m))
            m //= factors[-1]
        d = 1
        for j, q in enumerate(factors):
            d = d * q if j and factors[j - 1] == q else q
            lane.append(i)
            qs.append(q)
            ds.append(d)
    return lane, qs, ds


def _orders(a, b, p, spf):
    """ord(P1) and ord(P2) at the lanes where [p + 1]P1 = O, as a (2, lanes) array.

    P1 has x(P1) = 1 on y^2 = x^3 + a*x + b, and P2 has x(P2) = 1 on the
    model scaled by u = 2, y^2 = x^3 + 16a*x + 64b (x(P2) = 1/4 on this
    one); each lies on E or on its quadratic twist.  One _ladder call takes
    [p + 1]P2 and, for P1 and P2 alike, [(p + 1)/q^i]P for every prime
    power q^i dividing p + 1 (_order_lanes).  Where [p + 1]P = O, v_q of
    ord(P) is the number of i with [(p + 1)/q^i]P != O, so ord(P) is the
    product of q over those lanes.  P2's entry is 0 where [p + 1]P2 != O,
    and both entries are -1 where one of the prime's lanes is (0 : 0).
    """
    lane, q, d = (np.array(v, dtype=np.int64) for v in _order_lanes(p, spf))
    k, m = len(p), len(lane)
    A, B = np.stack([a, 16 * a % p]), np.stack([b, 64 * b % p])
    point = np.repeat([1, 0, 1], [k, m, m])  # P2 at p + 1, then P1's and P2's order lanes
    at = np.concatenate([np.arange(k), lane, lane])  # the prime of each ladder lane
    n = np.concatenate([p + 1, np.tile((p + 1)[lane] // d, 2)])
    X, Z = _ladder(A[point, at], B[point, at], p[at], n)
    at_O = (Z == 0) & (X != 0)
    orders = np.ones((2, k), dtype=np.int64)
    np.multiply.at(orders, (point[k:], at[k:]), np.where(at_O[k:], 1, np.tile(q, 2)))
    orders[1, ~at_O[:k]] = 0
    orders[:, at[(Z == 0) & (X == 0)]] = -1
    return orders


def _settle(
    curve: WeierstrassCurve, primes: list[int], sieve: list[int]
) -> tuple[list[int], list[int]]:
    """(zero, nonzero) among the primes _open_primes leaves open; sieve holds the primes to bound.

    At such a prime [p + 1]P1 = O.  If [p + 1]P2 != O too, a_p != 0.
    Otherwise each point's order divides p + 1 and the number of points of
    E or of its twist, p + 1 - a_p or p + 1 + a_p, so it divides a_p, and so
    does the lcm L of the two orders (_orders).  A nonzero a_p has a_p^2 <=
    4p (Hasse), so L^2 > 4p proves a_p = 0.  A prime in neither list goes to
    _aps.
    """
    if not primes:
        return [], []
    p, a, b = _short_model(curve, primes)
    orders = _orders(a, b, p, smallest_prime_factors((max(primes) + 1) // 2, sieve))
    lcm = np.lcm(orders[0], orders[1])
    zero = (orders > 0).all(0) & (lcm * lcm > 4 * p)
    return p[zero].tolist(), p[orders[1] == 0].tolist()


def _deuring(curve: WeierstrassCurve, primes: list[int]) -> tuple[list[int], list[int]]:
    """(zero, nonzero) at the good primes p >= 5 of primes that do not divide D, for a CM curve.

    D is the curve's cm_discriminant.  At a good p not dividing D, E is
    supersingular exactly when p does not split in Q(sqrt(D)), that is when
    (D / p) = -1 (Deuring 1941; Cox, Primes of the Form x^2 + ny^2, section
    14), and for p >= 5 supersingular means a_p = 0, since p | a_p and
    |a_p| <= 2*sqrt(p) < p.  One _pow gives every Legendre symbol.  A prime
    dividing D is in neither list.
    """
    p = np.array(primes, dtype=np.int64)
    d = _residues(curve.cm_discriminant, p)
    p, d = p[d != 0], d[d != 0]
    inert = _pow(d, (p - 1) // 2, p) == p - 1
    return p[inert].tolist(), p[~inert].tolist()


def _aps(curve: WeierstrassCurve, primes: list[int]) -> dict[int, int]:
    """p - #{affine points of the model mod p}: a_p at primes p < 2^31 of a minimal model.

    The one router, by whether p divides the discriminant: p = 2 tries its
    four pairs, the good primes above BSGS_CROSSOVER take one _lane_aps call,
    a bad prime p >= 5 its reduction type, and every other prime and open
    lane one _char_sums call.  At a bad p >= 5 the reduction of the model is
    y^2 = x^3 - 27*c4*x - 54*c6 with a cusp where p | c4 (additive, a_p = 0),
    else a node, split exactly when -c6 is a square mod p (a_p = +1, else
    -1), so no character sum runs there.  Each a_p is checked: a_p^2 <= 4p
    (Hasse), and a_p in {-1, 0, 1} at a bad prime.
    """
    if max(primes, default=0) >= 2**31:
        raise ValueError(f"p={max(primes)} is not below 2^31, the bound of the int64 lanes")
    bad = {p for p in primes if curve.discriminant % p == 0}
    lanes = [p for p in primes if p > BSGS_CROSSOVER and p not in bad]
    found = _lane_aps(curve, lanes) if lanes else {}
    c4, c6 = curve.c_invariants
    found.update({p: 0 if c4 % p == 0 else 1 if pow(-c6, (p - 1) // 2, p) == 1 else -1
                  for p in bad if p >= 5})
    summed = [p for p in primes if p != 2 and p not in found]
    sums = dict(zip(summed, _char_sums(curve, summed)))
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    aps = {}
    for p in primes:
        if p in found:
            ap = found[p]
        elif p == 2:
            ap = 2 - sum(
                (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
                for x in (0, 1)
                for y in (0, 1)
            )
        else:
            ap = -sums[p]
        if p in bad and ap not in (-1, 0, 1):
            raise ValueError(f"bad-prime a_p={ap} outside {{-1,0,1}} at p={p}")
        if ap * ap > 4 * p:
            raise ValueError(f"Hasse bound violated at p={p}: a_p={ap}")
        aps[p] = ap
    return aps


def ap_good(curve: WeierstrassCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a prime of good reduction."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if curve.discriminant % p == 0:
        raise ValueError(f"{p} divides the discriminant; use ap_bad")
    return _aps(curve, [p])[p]


def ap_bad(curve: WeierstrassCurve, p: int) -> int:
    """a_p = p - #E_ns(F_p) at a bad prime, for a model minimal at p.

    +1 split multiplicative, -1 nonsplit multiplicative, 0 additive.  The
    reduction has one singular point, which #E_ns drops and the point at
    infinity replaces, so the affine count gives a_p here as at a good
    prime.  prime_table refuses models that may not be minimal.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if curve.discriminant % p != 0:
        raise ValueError(f"{p} does not divide the discriminant; use ap_good")
    return _aps(curve, [p])[p]


def prime_table(curve: WeierstrassCurve, bound: int) -> PrimeEigenvalues:
    """a_p for every prime p <= bound (none for bound 1), by _aps in one call.

    The level comes first, so a model that may not be minimal is refused
    before any count.  The table keeps the one sieve of its primes, which
    its series and coeff read too.
    """
    return _table(curve, bound, scan=False)


def scan_table(curve: WeierstrassCurve, bound: int) -> PrimeEigenvalues:
    """The prime data of a scan to bound: a_p exactly wherever it may be 0.

    Each good prime p >= 5 is decided by theorem: by Deuring's criterion on
    a CM curve (_deuring), else by the ladder from x(P1) = 1 (_open_primes)
    and, where that leaves it open, by the orders of two points (_settle).
    A prime proven a_p = 0 enters the table as an exact 0, and one proven
    a_p != 0 is among the table's nonzero primes, with no value.  2, 3, the
    bad primes, the primes dividing D and any prime left undecided get
    their exact a_p from one _aps call.
    """
    return _table(curve, bound, scan=True)


def _table(curve: WeierstrassCurve, bound: int, scan: bool) -> PrimeEigenvalues:
    if not 1 <= bound < 2**31:
        raise ValueError("bound must be >= 1 and below 2^31")
    level = curve.level
    primes = sieve_primes(bound)
    zero, nonzero = [], []
    if scan:
        good = [p for p in primes if p >= 5 and level % p]
        if curve.cm_discriminant is not None:
            zero, nonzero = _deuring(curve, good)
        else:
            nonzero, left = _open_primes(curve, good)
            zero, settled = _settle(curve, left, primes)
            nonzero += settled
    decided = frozenset(zero).union(nonzero)
    aps = _aps(curve, [p for p in primes if p not in decided])
    aps.update(dict.fromkeys(zero, 0))
    return PrimeEigenvalues(weight=2, level=level, table=aps, bound=bound, primes=primes,
                            nonzero=frozenset(nonzero))
