"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every stated tolerance and wall-clock limit is asserted as written.
"""

import math
from functools import partial
import random
import time

from qvanish.arith import sieve_primes
from qvanish.ec import FIXTURES, ap_good, prime_table
from qvanish.forms import (
    delta_coefficient,
    delta_eisenstein,
    delta_eta,
    delta_eta_mod,
    eisenstein_coeffs,
    eta_quotient,
)
from qvanish.hecke import (
    CoefficientOracle,
    PrimeEigenvalues,
    coeff_prime_power,
    qexp_from_primes,
)
from qvanish.series import LANE_PRIMES
from qvanish.vanish import (
    CERT_ZERO,
    PERIODIC,
    ScanSource,
    classify,
    compute_mf,
    first_vanishing,
    zeros_up_to,
)

from .conftest import acceptance_lines
from .oracles import count_affine_points, prime_power_zeros

KNOWN_37A1 = (0, 1, -2, -3, 2, -2, 6, -1, 0, 6)
KNOWN_53A1 = (0, 1, -1, -3, -1, 0, 3, -4, 3, 6)


def report(num, ok, elapsed, desc):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:.2f}s) {desc}"
    acceptance_lines.append(line)
    print(f"[acceptance] {line}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_counterexample_37a1():
    t0 = time.perf_counter()
    curve = FIXTURES["37a1"]
    expansion = qexp_from_primes(prime_table(curve, 9), 9)
    ok = expansion.coeffs == KNOWN_37A1 and expansion[8] == 0
    pe = prime_table(curve, 100)
    scan = first_vanishing(ScanSource(pe.bound, CoefficientOracle(pe).coeff))
    ok = ok and scan.first_zero == 8 and scan.first_zero_is_prime is False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, elapsed, "37a1 expansion exact through q^9; first zero 8, composite")


def test_criterion_02_counterexample_53a1():
    t0 = time.perf_counter()
    expansion = qexp_from_primes(prime_table(FIXTURES["53a1"], 9), 9)
    ok = expansion.coeffs == KNOWN_53A1
    ok = ok and coeff_prime_power(-3, 3, 5, 2) == 0
    ok = ok and all(coeff_prime_power(-3, 3, r, 2) != 0 for r in (1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, elapsed, "53a1 expansion exact through q^9; a(3^5) = 0, a(3^r) != 0 for r < 5")


def test_criterion_03_optimal_mf_values():
    t0 = time.perf_counter()
    cases = {
        "37a1": (37, -2, -3, 2, 6),
        "53a1": (53, -1, -3, 2, 3),
        "delta": (1, -24, 252, 12, 1),
    }
    ok = True
    for level, a2, a3, k, expected in cases.values():
        mf = compute_mf(level, a2, a3, k)
        ok = ok and mf.value == expected
        # consistency with the observed zero sets: p kept iff its prime-power
        # coefficients actually vanish (periodic classification / brute zeros)
        for p, ap in ((2, a2), (3, a3)):
            has_zeros = bool(prime_power_zeros(ap, p, k, 30))
            ok = ok and (p in mf.factors_kept) == has_zeros
            ok = ok and (classify(ap, p, k).kind == PERIODIC) == has_zeros
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(3, ok, elapsed, "M_f(37a1) = 6, M_f(53a1) = 3, M_f(delta) = 1, zero-set consistent")


def test_criterion_04_scaled_lehmer_scan():
    t0 = time.perf_counter()
    bound = 100000
    src = ScanSource(bound, delta_coefficient, LANE_PRIMES, partial(delta_eta_mod, bound))
    scan = first_vanishing(src)
    ok = scan.first_zero is None
    ok = ok and scan.certification.count(CERT_ZERO) == 0
    ok = ok and len(scan.certification) == bound
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, elapsed, f"tau(n) != 0 certified for all n <= {bound}")


def test_criterion_05_delta_cross_route():
    t0 = time.perf_counter()
    bound = 2000
    via_eta = delta_eta(bound)
    via_eisenstein = delta_eisenstein(bound)
    ok = via_eta.coeffs == via_eisenstein.coeffs
    diff = eisenstein_coeffs(2, bound) ** 3 - eisenstein_coeffs(3, bound) ** 2
    ok = ok and all(c % 1728 == 0 for c in diff.coeffs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(5, ok, elapsed, "both delta routes agree to n = 2000; E4^3 - E6^2 always divisible by 1728")


def _hasse_cases(p, k):
    """a_p values to sweep: exhaustive for p in {2, 3}, else every comparison
    boundary (with neighbors), the endpoints, and a deterministic stride."""
    pk = p ** (k - 1)
    hasse = 2 * math.isqrt(pk) + 1
    if p in (2, 3):
        return range(-hasse, hasse + 1)
    cases = {0, 1, -1, 2, -2, hasse, -hasse, hasse - 1, 1 - hasse}
    for t in (1, 2, 3, 4):
        root = math.isqrt(t * pk)
        for d in (-2, -1, 0, 1, 2):
            cases.add(root + d)
            cases.add(-(root + d))
    step = max(1, hasse // 40)
    cases.update(range(-hasse, hasse + 1, step))
    return sorted(cases)


def test_criterion_06_classifier_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for k in (2, 4, 6, 8, 10, 12, 14, 16):
            for ap in _hasse_cases(p, k):
                expected = prime_power_zeros(ap, p, k, 100)
                got = zeros_up_to(classify(ap, p, k), 100)
                mismatches += got != expected
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(
        6, ok, elapsed,
        f"classifier equals brute recurrence zero sets to r = 100 "
        f"({checked} (a_p, p, k) cases, {mismatches} mismatches)",
    )


def test_criterion_07_hecke_engine_identity():
    t0 = time.perf_counter()
    bound = 500
    d = delta_eta(bound)
    table = {p: d[p] for p in sieve_primes(bound)}
    pe = PrimeEigenvalues(weight=12, level=1, table=table, bound=bound)
    ok = qexp_from_primes(pe, bound).coeffs == d.coeffs

    rng = random.Random(20260809)
    R = 30
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        k = rng.choice([2, 4, 6, 8, 10, 12, 14, 16])
        ap = rng.randrange(-100, 101)
        seq = [coeff_prime_power(ap, p, r, k) for r in range(R + 1)]
        # (sum a(p^r) X^r) * (1 - a_p X + p^(k-1) X^2) = 1 up to X^R
        quad = [1, -ap, p ** (k - 1)]
        prod = [0] * (R + 1)
        for i, qi in enumerate(quad):
            for j in range(R + 1 - i):
                prod[i + j] += qi * seq[j]
        ok = ok and prod == [1] + [0] * R
    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, "qexp from delta primes equals delta_eta to 500; Euler-factor identity to X^30 x50")


def test_criterion_08_eta_quotient_sanity():
    t0 = time.perf_counter()
    ok = True
    for level in (2, 3, 5, 11):
        k = 24 // (level + 1)
        spec, qs = eta_quotient(level, 2500)
        ok = ok and qs[1] == 1 and spec.weight == k
        for p in sieve_primes(50):
            if p != level:
                ok = ok and qs[p * p] == qs[p] ** 2 - p ** (k - 1)
    elapsed = time.perf_counter() - t0
    report(8, ok, elapsed, "eta quotients: a(1) = 1 and a(p^2) = a(p)^2 - p^(k-1) at good p <= 50")


def test_criterion_09_point_counting_cross_check():
    t0 = time.perf_counter()
    ok = True
    for curve in (FIXTURES["37a1"], FIXTURES["53a1"]):
        for p in sieve_primes(200):
            if curve.discriminant % p == 0:
                continue
            ap = ap_good(curve, p)
            affine = count_affine_points(
                curve.a1, curve.a2, curve.a3, curve.a4, curve.a6, p
            )
            ok = ok and ap == p + 1 - (affine + 1)
            ok = ok and ap * ap <= 4 * p
    elapsed = time.perf_counter() - t0
    report(9, ok, elapsed, "character-sum and enumeration counts agree for good p <= 200; Hasse holds")
