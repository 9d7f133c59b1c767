"""Exact Beatty-sequence self-matching toolkit for quadratic Pisot units."""

from .beatty import (
    MismatchRecord,
    NotAMismatch,
    ScanSummary,
    brute_force_mismatches,
    coverage_k,
    discrepancy,
    frequency_scan,
    is_mismatch,
    mismatch_epsilon,
    mismatch_set,
    mismatches_between,
    recover_k,
)
from .cutproject import (
    LatticePoint,
    Window,
    cut_points,
    scale_by_conjugate,
    translate,
    unit_interval_points,
)
from .gfib import DEFAULT_LENGTH, GFib, verify_power_identity
from .units import (
    DomainError,
    Family,
    InvariantError,
    QuadraticUnit,
    UnitMismatch,
    ZBeta,
    beta_pow,
    make_unit,
)
from .verify import SUITES, SuiteResult, default_units, render_report, run_suites

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LENGTH",
    "DomainError",
    "Family",
    "GFib",
    "InvariantError",
    "LatticePoint",
    "MismatchRecord",
    "NotAMismatch",
    "QuadraticUnit",
    "SUITES",
    "ScanSummary",
    "SuiteResult",
    "UnitMismatch",
    "Window",
    "ZBeta",
    "beta_pow",
    "brute_force_mismatches",
    "coverage_k",
    "cut_points",
    "default_units",
    "discrepancy",
    "frequency_scan",
    "is_mismatch",
    "make_unit",
    "mismatch_epsilon",
    "mismatch_set",
    "mismatches_between",
    "recover_k",
    "render_report",
    "run_suites",
    "scale_by_conjugate",
    "translate",
    "unit_interval_points",
    "verify_power_identity",
]
