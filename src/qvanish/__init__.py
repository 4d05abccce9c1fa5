"""Exact q-expansion coefficients of classical newforms and their vanishing.

Exact integer power-series arithmetic (series), coefficient providers for the
discriminant form, Eisenstein series, Shimura eta quotients and elliptic-curve
newforms (forms, ec), the eigenform coefficient recurrences (hecke), and the
prime-power vanishing classifier, obstruction modulus M_f and first-vanishing
scans (vanish).  The qvanish CLI ties them together.
"""

from .arith import factorize, is_prime, sieve_primes
from .ec import FIXTURES, WeierstrassCurve, ap_bad, ap_good, prime_table
from .forms import (
    FormSpec,
    bernoulli,
    delta_eisenstein,
    delta_eta,
    eisenstein_coeffs,
    eta_product,
    eta_quotient,
    export_qexp,
    ingest_qexp,
    sigma,
)
from .hecke import PrimeEigenvalues, coeff_prime_power, qexp_from_primes
from .series import LANE_PRIMES, QSeries, ResidueSeries, SparseSeries, eta_raw
from .vanish import (
    GuaranteeViolationError,
    MfResult,
    ScanReport,
    ScanSource,
    VanishClass,
    classify,
    compute_mf,
    first_vanishing,
    zeros_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "FIXTURES",
    "FormSpec",
    "GuaranteeViolationError",
    "LANE_PRIMES",
    "MfResult",
    "PrimeEigenvalues",
    "QSeries",
    "ResidueSeries",
    "ScanReport",
    "ScanSource",
    "SparseSeries",
    "VanishClass",
    "WeierstrassCurve",
    "ap_bad",
    "ap_good",
    "bernoulli",
    "classify",
    "coeff_prime_power",
    "compute_mf",
    "delta_eisenstein",
    "delta_eta",
    "eisenstein_coeffs",
    "eta_product",
    "eta_quotient",
    "eta_raw",
    "export_qexp",
    "factorize",
    "first_vanishing",
    "ingest_qexp",
    "is_prime",
    "prime_table",
    "qexp_from_primes",
    "sieve_primes",
    "sigma",
    "zeros_up_to",
]
