"""Independent brute-force references the tests check the package against.

Everything here is deliberately naive (repeated schoolbook polynomial
multiplication, full enumeration, literal recurrences) and never calls into
the package, so agreement is meaningful.
"""

from __future__ import annotations


def poly_mul(a, b, bound):
    out = [0] * (bound + 1)
    for i, ai in enumerate(a[: bound + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: bound + 1 - i]):
            out[i + j] += ai * bj
    return out


def euler_product(bound, dilation=1):
    """prod_{n>=1} (1 - q^(dilation*n)) truncated at bound, term by term."""
    out = [1] + [0] * bound
    for n in range(dilation, bound + 1, dilation):
        factor = [0] * (bound + 1)
        factor[0] = 1
        factor[n] = -1
        # the two-term factor goes first: poly_mul skips its zeros
        out = poly_mul(factor, out, bound)
    return out


def euler_cube(bound, dilation=1):
    """prod_{n>=1} (1 - q^(dilation*n))^3 as the Euler product times itself twice."""
    p = euler_product(bound, dilation)
    return poly_mul(p, poly_mul(p, p, bound), bound)


def eta_product_by_euler(level, bound):
    """q * prod (1 - q^n)^a (1 - q^(level*n))^a, a = 24/(level+1), naively."""
    a = 24 // (level + 1)
    acc = [0, 1] + [0] * (bound - 1)
    for dilation in (1, level):
        p = euler_product(bound, dilation)
        for _ in range(a):
            acc = poly_mul(p, acc, bound)
    return acc


def tau_by_product(bound):
    """tau(0..bound) via q * prod(1 - q^n)^24, naive multiplications."""
    p = euler_product(bound)
    acc = [1] + [0] * bound
    for _ in range(24):
        acc = poly_mul(p, acc, bound)
    return [0] + acc[:bound]


def tau_by_niebur(n):
    """tau(n) by Niebur's formula (1975), an identity independent of the eta product:

        tau(n) = n^4 sigma(n) - 24 sum_{i=1}^{n-1} i^2 (35i^2 - 52in + 18n^2)
                 sigma(i) sigma(n-i),

    with sigma the divisor sum, tabulated here by a plain divisor sieve.
    """
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        for multiple in range(d, n + 1, d):
            sig[multiple] += d
    s = 0
    for i in range(1, n):
        s += i * i * (35 * i * i - 52 * i * n + 18 * n * n) * sig[i] * sig[n - i]
    return n**4 * sig[n] - 24 * s


def sigma_by_divisors(n, m):
    return sum(d**m for d in range(1, n + 1) if n % d == 0)


def multiplicative_by_trial_division(bound, prime_power):
    """[0, f(1), ..., f(bound)]: each n trial-divided, f(p^e) multiplied per p^e || n."""
    out = [0]
    for n in range(1, bound + 1):
        value, rest, p = 1, n, 2
        while rest > 1:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                value *= prime_power(p, e)
            p += 1
        out.append(value)
    return out


def prime_power_coeffs(a_p, p, k, R, bad=False):
    """a(p^r) for r = 0..R by the literal recurrence, exact integers."""
    if bad:
        return [a_p**r for r in range(R + 1)]
    seq = [1, a_p]
    pk = p ** (k - 1)
    while len(seq) <= R:
        seq.append(a_p * seq[-1] - pk * seq[-2])
    return seq[: R + 1]


def prime_power_zeros(a_p, p, k, R, bad=False):
    """The set of r in 1..R with a(p^r) = 0, straight off the recurrence."""
    seq = prime_power_coeffs(a_p, p, k, R, bad=bad)
    return {r for r in range(1, R + 1) if seq[r] == 0}


def count_affine_points(a1, a2, a3, a4, a6, p):
    """Affine F_p points of the Weierstrass model, all p^2 pairs tried."""
    n = 0
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                n += 1
    return n


def count_nonsingular(a1, a2, a3, a4, a6, p):
    """Nonsingular affine points plus infinity, by full enumeration."""
    n = 0
    for x in range(p):
        for y in range(p):
            on = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p
            if on:
                continue
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx == 0 and fy == 0:
                continue
            n += 1
    return n + 1


def parse_qexp_by_lines(text, label_fallback="file"):
    """The q-expansion text format read one line at a time.

    Returns (weight, level, label, coefficients from a(0) = 0) or raises
    ValueError with the message qvanish.forms.parse_qexp gives, including
    the checks its FormSpec makes.
    """
    headers = {}
    body = []
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
    if weight < 2:
        raise ValueError("weight must be even and >= 2")
    if level < 1:
        raise ValueError("level must be >= 1")
    return weight, level, headers.get("label", label_fallback), tuple(coeffs)
