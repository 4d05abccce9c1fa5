"""Newform coefficients from rational elliptic curves by point counting.

For a model minimal at p, one count gives a_p at every prime: a_p = p -
#{affine points of the model mod p}.  At a good prime that is p + 1 -
#E(F_p); at a bad prime the reduction has one singular point, so it is
p - #E_ns(F_p), which is +1 (split multiplicative), -1 (nonsplit) or 0
(additive).  The exact a_p of a list of primes comes from one router, _aps:

- Good primes above BSGS_CROSSOVER, all in one call (_lane_aps): Shanks'
  baby-step giant-step in int64 numpy lanes, one lane per prime, on
  x-coordinates only.  A lane tries a few points P, each of E or of its
  quadratic twist, for the orders N in the Hasse interval [p+1-2*sqrt(p),
  p+1+2*sqrt(p)] with N*P = O; a point that allows one N fixes #E(F_p) by
  itself (Mestre's method; Cohen, GTM 138; Schoof 1995, section 3).  That
  is O(p^(1/4)) steps per point, and every lane takes the same ones, so the
  interpreter is paid once per step of a round of primes (LANES_PER_ROUND
  or more where the table has them), not once per prime: about 15-25 us
  per prime from 2^9 to 2^18, against about 2.5-7 ms for a lane on its own
  (ap_good above the crossover).
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
  a_p = 0 exactly when the Legendre symbol (D / p) is -1 (Deuring), read
  from the residue class of p mod |d_K| (_deuring).
- Any other curve: one x-only ladder per prime (_open_primes).  The point
  P1 with x(P1) = 1, of E or of its quadratic twist, proves a_p != 0 where
  [p + 1]P1 != O.  The few primes it leaves open take one more ladder call
  (_settle), for a second point P2 and the orders of both, which divide
  p + 1: a_p != 0 where [p + 1]P2 != O, and a_p = 0 where the lcm of the
  two orders exceeds 2*sqrt(p) (Mestre's argument).

2, 3, the bad primes, the primes dividing D and any prime left undecided
get their exact a_p from _aps.  The ladder and the lanes run one
arithmetic, the x-only steps _xadd and _xdbl (Brier and Joye 2002).
Primes from 2^31 on are refused: the lanes hold residues below p in int64,
which keeps a product of two below 2^62 only while p < 2^31, and the
character sum there would take O(p) time and memory.  Models that may not
be minimal are refused (see WeierstrassCurve.level).
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
# the character sum.  prime_table to 14000 for 37a1 and 53a1 on the x-only
# lanes (CPU time, medians of 60 runs of each crossover alternating in one
# process; Python 3.11, numpy 2.4.6, shared 2-core x86-64 host) took 22.4
# and 22.7 ms at 255, 22.4 and 22.6 at 383, 22.6 and 23.3 at 511, and 24.8
# and 25.2 at 1023: above 512 a lane is cheaper than a character sum, and
# below it they cost about the same, so 511 is kept.
BSGS_CROSSOVER = 511
# Points tried on a lane before its prime falls back to the character sum.
BSGS_POINTS = 8
# Chunks of primes of one bit length join a round until it has this many
# lanes (see _lane_aps).  prime_table to 14000 for 37a1 and 53a1 (medians of
# 60 alternating runs, as above) took 26.4 and 26.6 ms at 512 lanes, 23.0
# and 23.4 at 1024, and 23.4 and 23.6 at 2048, which makes the same rounds
# as 1024 to 20000; to 2*10^5, 1024, 2048 and 4096 tied within the noise
# (6 runs).
LANES_PER_ROUND = 1024

# The lanes: int64 arrays with one entry per prime p < 2^31.  Every operand is
# reduced into [0, p), so a product is below 2^62 and a sum or difference of
# two products stays inside int64; each product, or a small constant times a
# residue (4*Z, 8*b in _xdbl), is reduced before it is used.


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


def _xadd(P, Q, D, a, b4, p):
    """x(P + Q) as (X : Z) from x(P), x(Q) and x(P - Q) = D, each as (X : Z); D None means 1.

    Brier and Joye (2002), on y^2 = x^3 + a*x + b with b4 = 4b mod p:
    ((X0X1 - aZ0Z1)^2 - 4bZ0Z1(X0Z1 + X1Z0)) * Z_D : (X0Z1 - X1Z0)^2 * X_D.
    It holds where P or Q is O, but not where D is O (P = Q, a doubling) or
    x(D) = 0, where every sum comes out with Z = 0.
    """
    (X0, Z0), (X1, Z1) = P, Q
    u = Z0 * Z1 % p
    s = (X0 * X1 - a * u % p) % p
    v, w = X0 * Z1 % p, X1 * Z0 % p
    X = (s * s - b4 * u % p * ((v + w) % p)) % p
    Z = (v - w) ** 2 % p
    if D is None:
        return X, Z
    return D[1] * X % p, D[0] * Z % p


def _xdbl(P, a, b, b8, p):
    """x(2P) as (X : Z), b8 = 8b mod p: ((X^2 - aZ^2)^2 - 8bXZ^3 : 4Z(X^3 + aXZ^2 + bZ^3))."""
    X, Z = P
    xx, zz = X * X % p, Z * Z % p
    zzz = zz * Z % p
    s = (xx - a * zz % p) % p
    XD = (s * s - b8 * (X * zzz % p)) % p
    return XD, 4 * Z % p * ((xx * X + (a * (X * zz % p) + b * zzz) % p) % p) % p


def _ladder(a, b, p, n):
    """(x([n]P), x([n + 1]P)), each as (X : Z), lane by lane, for x(P) = 1 on y^2 = x^3 + a*x + b.

    [n]P = O exactly where Z = 0 and X != 0; a lane at (0 : 0) is no
    evidence either way.  The x-only Montgomery ladder: R0 = O = (1 : 0)
    and R1 = P, whose difference stays P, take one step per bit of n from
    the top bit of the largest n, so a lane's leading zero bits keep (O, P).
    Each step adds R0 + R1 (_xadd, x(P) = 1 the difference) and doubles the
    one the bit keeps (_xdbl); neither formula asks for y, so P may lie on E
    or on its quadratic twist.
    """
    X0, Z0, X1, Z1 = np.ones_like(p), np.zeros_like(p), np.ones_like(p), np.ones_like(p)
    b4 = 4 * b % p
    b8 = 2 * b4 % p
    for i in reversed(range(int(n.max(initial=0)).bit_length())):
        bit = (n >> i) & 1 == 1
        XS, ZS = _xadd((X0, Z0), (X1, Z1), None, a, b4, p)
        XD, ZD = _xdbl((np.where(bit, X1, X0), np.where(bit, Z1, Z0)), a, b, b8, p)
        X0, Z0 = np.where(bit, XS, XD), np.where(bit, ZS, ZD)
        X1, Z1 = np.where(bit, XD, XS), np.where(bit, ZD, ZS)
    return (X0, Z0), (X1, Z1)


def _annihilators(a, b, p, lo, span, m):
    """N, lane by lane: the one order in [lo, lo + span] that P allows, else 0.

    P is x = 1 on y^2 = x^3 + a*x + b, a point of E or of its twist, and it
    allows N where N*P = O.  0 is no verdict: P has order at most 2m, the
    interval holds more than one such N, or a chain meets a difference at
    x = 0 or a ladder lane at (0 : 0).

    The baby steps x(jP), j = 1..m+1, come from the chain (j+1)P = jP + P,
    difference (j-1)P, and S = (2m+1)P from (m+1)P + mP; one _inverses call
    makes them affine and gives 1/x(S).  P has order at most 2m exactly when
    jP = O for some j <= m, x(mP) = x(jP) for some j < m, or x((m+1)P) =
    x((m-1)P).  Otherwise each window [c-m, c+m] holds at most one N, shown
    as cP = O (N = c) or as x(cP) = x(kP) for one k in 1..m (N = c + k or
    c - k).  The giant steps are c = (t+i)(2m+1), t = (lo+m) // (2m+1): one
    _ladder call on the model where S has x = 1, (a/x(S)^2, b/x(S)^3),
    gives [t]S and [t+1]S, and each later one adds S with the step before
    last as the difference, or doubles where that is O.  One more _ladder
    call, at c + k over the matches of the lanes that may still hold one N,
    picks the sign: N = c + k where [c+k]P = O, else c - k.
    """
    b4 = 4 * b % p
    b8 = 2 * b4 % p
    step = 2 * m + 1
    # row j - 1 holds x(jP); the last row takes X of S, to be inverted with them
    X, Z = (np.ones((m + 2, len(p)), dtype=np.int64) for _ in range(2))
    X[1], Z[1] = _xdbl((X[0], Z[0]), a, b, b8, p)
    for j in range(2, m + 1):
        X[j], Z[j] = _xadd((X[j - 1], Z[j - 1]), (X[0], Z[0]), (X[j - 2], Z[j - 2]), a, b4, p)
    XS, ZS = _xadd((X[m], Z[m]), (X[m - 1], Z[m - 1]), None, a, b4, p)
    none = (Z[:m] == 0).any(0) | (X[1:m - 1] == 0).any(0) | (XS == 0)
    Z[m + 1] = XS
    Z[Z == 0] = 1
    _inverses(Z, p)
    x = X[:m + 1] * Z[:m + 1] % p
    none |= (x[:m - 1] == x[m - 1]).any(0) | (x[m] == x[m - 2])
    N = np.zeros_like(p)
    big = (~none).nonzero()[0]
    if not len(big):
        return N
    a, b, b4, b8, p, lo, span, XS, ZS = (v[big] for v in (a, b, b4, b8, p, lo, span, XS, ZS))
    x, w = x[:m, big], ZS * Z[m + 1, big] % p  # w = 1/x(S)
    t = (lo + m) // step
    rows = int((-(-span // step)).max()) + 1  # the windows cover [lo, lo + span]
    GX, GZ = (np.empty((rows, len(p)), dtype=np.int64) for _ in range(2))
    ww = w * w % p
    for i, (gx, gz) in enumerate(_ladder(a * ww % p, b * (ww * w % p) % p, p, t)):
        GX[i], GZ[i] = XS * gx % p, ZS * gz % p  # x = x(S) times x on that model
    none = ((GX[:2] == 0) & (GZ[:2] == 0)).any(0)
    for i in range(1, rows - 1):
        GX[i + 1], GZ[i + 1] = _xadd((GX[i], GZ[i]), (XS, ZS), (GX[i - 1], GZ[i - 1]), a, b4, p)
        d = (GZ[i - 1] == 0).nonzero()[0]  # G_{i-1} = O, so G_i = S
        if len(d):
            GX[i + 1, d], GZ[i + 1, d] = _xdbl((GX[i, d], GZ[i, d]), a[d], b[d], b8[d], p[d])
    none |= (GX[:rows - 2] == 0).any(0)
    at_O = GZ == 0  # in a lane with a verdict, X != 0 there
    GZ[at_O] = 1
    _inverses(GZ, p)
    GX *= GZ
    GX %= p
    del GZ
    k = np.zeros((rows, len(p)), dtype=np.int16)
    for j in range(m):
        k[GX == x[j]] = j + 1
    del GX
    k[at_O] = 0
    c = (t + np.arange(rows)[:, None]) * step

    def inside(n, lane=slice(None)):
        return (lo[lane] <= n) & (n <= lo[lane] + span[lane])

    at_O &= inside(c)
    minus, plus = inside(c - k), inside(c + k)
    hit = (k > 0) & (minus | plus)
    # the rows sure to hold an N in the interval; where two are, no verdict
    sure = at_O.sum(0) + (hit & minus & plus).sum(0)
    row, lane = (hit & (sure <= 1)).nonzero()
    kk = k[row, lane]
    n = c[row, lane] + kk
    (XN, ZN), _ = _ladder(a[lane], b[lane], p[lane], n)
    none[lane[(XN == 0) & (ZN == 0)]] = True
    n = np.where((ZN == 0) & (XN != 0), n, n - 2 * kk)
    keep = inside(n, lane)
    lane, n = lane[keep], n[keep]
    count = at_O.sum(0) + np.bincount(lane, minlength=len(p))
    value = np.where(at_O, c, 0).sum(0)
    np.add.at(value, lane, n)
    N[big] = np.where((count == 1) & (sure <= 1) & ~none, value, 0)
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

    a and b are the short model's coefficients and [lo, lo + span] the
    Hasse interval.  u gives the lane's points, one row each: x = 1 on the
    model scaled by u, y^2 = x^3 + a*u^2*x + b*u^3.  t counts the points the
    lane has used.
    """

    p: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    span: np.ndarray
    u: np.ndarray
    t: np.ndarray

    @classmethod
    def new(cls, curve: WeierstrassCurve, primes: list[int]) -> _Lanes:
        """Lanes for primes, none of whose points is used yet."""
        p, a, b = _short_model(curve, primes)
        span = np.array([2 * isqrt(4 * q) for q in primes], dtype=np.int64)
        # u is dropped where u*(1 + a*u^2 + b*u^3) = 0: u = 0 mod p, or x = 1
        # a root of the scaled model's cubic, which holds for at most three
        # u; so from p = BSGS_POINTS + 4 on these u give BSGS_POINTS points
        us = np.arange(1, BSGS_POINTS + 4)[:, None]
        usable = us * (1 + a * us**2 + b * us**3) % p != 0
        first = usable & (usable.cumsum(0) <= BSGS_POINTS)
        u = first.T.nonzero()[1].reshape(len(p), BSGS_POINTS).T + 1
        return cls(p, a, b, p + 1 - span // 2, span, u, np.zeros_like(p))

    def step(self, found: dict[int, int]) -> _Lanes:
        """Each lane takes one point in its first step, two in its second, the rest in its third.

        Every point is a column of one _annihilators call.  found gets the
        lanes with a point that allows one N; the rest return while they
        have points left.
        """
        uses = np.minimum(np.where(self.t < 2, self.t + 1, BSGS_POINTS), BSGS_POINTS - self.t)
        lane = np.repeat(np.arange(len(self.p)), uses)  # the lane of each column
        nth = np.arange(len(lane)) - (np.cumsum(uses) - uses)[lane]
        u = self.u[self.t[lane] + nth, lane]
        p, lo, span = self.p[lane], self.lo[lane], self.span[lane]
        a, b = self.a[lane] * u**2 % p, self.b[lane] * u**3 % p
        N = _annihilators(a, b, p, lo, span, _baby_steps(int(p.max())))
        one = N > 0
        # The point is x = 1/u on the short model, of E where u*(1 + a + b)
        # is a square and of its twist where not; a twist point of order N'
        # allows N = 2p + 2 - N' = 2*lo + span - N'.
        r, p, lo, span, N = (v[one] for v in (u * (1 + a + b) % p, p, lo, span, N))
        N = np.where(_pow(r, (p - 1) // 2, p) != 1, 2 * lo + span - N, N)
        found.update(zip(p.tolist(), (p + 1 - N).tolist()))
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

    Works on the short model y^2 = x^3 + a*x + b, a = -27*c4, b = -54*c6,
    with x-coordinates only (_annihilators).  A lane's points are x = 1/u
    for u = 1, 2, ..., each taken as x = 1 on y^2 = x^3 + a*u^2*x + b*u^3,
    the model scaled by u, so no inverse and no square root is taken and no
    point has x = 0: the point lies on E where u*(1 + a*u^2 + b*u^3) is a
    square, on its quadratic twist where not.  #E(F_p) is among the orders N
    in the Hasse interval that a point allows (a twist point of order N'
    allows 2p + 2 - N'), so a point that allows one N alone gives #E(F_p) =
    N.  A lane none of whose BSGS_POINTS points allows one N is left out of
    the result.

    Primes enter in the rounds of _rounds.
    Every lane of a round takes the same steps, with the m of the round's
    largest prime: any m works for a lane, as long as the giant steps cover
    the Hasse interval.  A step costs about 1.7 ms plus 8 us per point, and
    most lanes are settled by their first point; so a round takes at most
    three steps: a lane takes one point in its first step, two in its second
    and all it has left in its third.  Every point in the second step would
    cost 7 points a lane where most need one: the 67 lanes of 37a1 that one
    point leaves open to 14000 took 5.6 ms so, 3.3 ms with two points each
    and 2.2 ms with one (best of 15).
    """
    found: dict[int, int] = {}
    for chunk in _rounds(primes):
        lanes = _Lanes.new(curve, chunk)
        while len(lanes.p):
            lanes = lanes.step(found)
    return found


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
        (X, Z), _ = _ladder(a, b, p, p + 1)
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
    (X, Z), _ = _ladder(A[point, at], B[point, at], p[at], n)
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


def _inert_classes(d: int):
    """inert[p % |d_K|]: whether a prime p >= 5 not dividing d is inert in Q(sqrt(d)).

    d = f^2 * d_K, with d_K the discriminant of the field.  At such a p,
    (d / p) = (d_K / p), a character mod |d_K| by quadratic reciprocity
    (Cox, Primes of the Form x^2 + ny^2, sections 1 and 5): p is inert
    exactly when p = 3 mod 4 for d_K = -4, p = 5 or 7 mod 8 for d_K = -8,
    and p is a non-residue mod q for d_K = -q, q an odd prime (q = 3 mod 4,
    as for each of the nine fields of CM_J_INVARIANTS).
    """
    n = -next(d // f**2 for f in range(isqrt(-d), 0, -1) if d % f**2 == 0 and d // f**2 % 4 < 2)
    inert = np.zeros(n, dtype=bool)
    if n == 4:
        inert[3] = True
    elif n == 8:
        inert[[5, 7]] = True
    else:
        inert[1:] = True
        inert[np.arange(1, n) ** 2 % n] = False
    return inert


def _deuring(curve: WeierstrassCurve, primes: list[int]) -> tuple[list[int], list[int]]:
    """(zero, nonzero) at the good primes p >= 5 of primes that do not divide D, for a CM curve.

    D is the curve's cm_discriminant.  At a good p not dividing D, E is
    supersingular exactly when p does not split in Q(sqrt(D)), that is when
    (D / p) = -1 (Deuring 1941; Cox, Primes of the Form x^2 + ny^2, section
    14), and for p >= 5 supersingular means a_p = 0, since p | a_p and
    |a_p| <= 2*sqrt(p) < p.  The residue class of p mod |d_K| gives each
    verdict (_inert_classes).  A prime dividing D is in neither list.
    """
    d = curve.cm_discriminant
    classes = _inert_classes(d)
    p = np.array(primes, dtype=np.int64)
    p = p[d % p != 0]
    inert = classes[p % len(classes)]
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
