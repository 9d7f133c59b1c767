"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line.  Run ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete; the whole suite takes a few seconds.  Criteria
01-03 scan every |j| <= 10**4 at twelve levels through the fixed-point
floor window, which costs about one square root per level rather than
one per point.
"""
from __future__ import annotations

import pytest

from beattymatch import GFib, brute_force_mismatches, run_suites
from beattymatch.cli import main as cli_main

I_MAX = 12
J_WINDOW = 10_000
FREQ_N = 10**30
B_WINDOW = 1_000
SIGMA_B_WINDOW = 300
BRIDGE_B_WINDOW = 500


def _report(num: int, label: str, failures: int, checked: int, note: str = "") -> None:
    status = "PASS" if failures == 0 else "FAIL"
    tail = f" [{note}]" if note else ""
    print(f"acceptance {num:02d} {label:<24s} {status}  ({checked} checks, {failures} failures){tail}", flush=True)
    assert failures == 0, f"criterion {num} ({label}) failed {failures}/{checked} checks"


def _delegate(num: int, suite: str, **kwargs) -> None:
    (result,) = run_suites([suite], **kwargs)
    _report(num, suite, result.failures, result.checked, result.note)


def test_criterion_01_range_law():
    _delegate(1, "range-law", i_max=I_MAX, window=J_WINDOW)


def test_criterion_02_criterion_equivalence():
    _delegate(2, "criterion-equivalence", i_max=I_MAX, window=J_WINDOW)


def test_criterion_03_set_equivalence():
    _delegate(3, "set-equivalence", i_max=I_MAX, window=J_WINDOW)


def test_criterion_04_frequency():
    _delegate(4, "frequency", i_max=I_MAX, freq_n=FREQ_N)


def test_criterion_05_power_identities():
    _delegate(5, "power-identities")


def test_criterion_06_unit_interval():
    _delegate(6, "unit-interval", b_span=B_WINDOW)


def test_criterion_07_sigma_identities():
    _delegate(7, "sigma-identities", b_span=SIGMA_B_WINDOW)


def test_criterion_08_even_level_bridge():
    _delegate(8, "level-bridge", i_max=I_MAX, b_span=BRIDGE_B_WINDOW)


def test_criterion_09_golden_regression(golden):
    checked = failures = 0
    n = 10_000
    fib = GFib.build(golden)
    for i in range(1, 9):
        actual = [j for j, _ in brute_force_mismatches(golden, fib, i, 1, n)]
        predicted = []
        for k in range(1, n + 1):
            j = k * fib[i + 1] + golden.floor_mul(k) * fib[i]
            if j > n:
                break
            predicted.append(j)
        checked += len(actual) + 1
        if actual != sorted(predicted):
            failures += 1
    _report(9, "golden-regression", failures, checked)


def test_criterion_10_negative_control(tmp_path):
    base = [
        "verify",
        "--suite",
        "criterion-equivalence",
        "--i-max",
        "4",
        "--window",
        "200",
    ]
    fault_out = tmp_path / "fault.txt"
    clean_out = tmp_path / "clean.txt"
    fault_code = cli_main(base + ["--inject-fault", "3", "--out", str(fault_out)])
    clean_code = cli_main(base + ["--out", str(clean_out)])
    fault_text = fault_out.read_text()
    clean_text = clean_out.read_text()
    failures = 0
    if fault_code != 2 or "criterion-equivalence" not in fault_text or "FAIL" not in fault_text:
        failures += 1
    if clean_code != 0 or "overall: PASS" not in clean_text:
        failures += 1
    _report(
        10,
        "negative-control",
        failures,
        2,
        note=f"fault exit={fault_code}, clean exit={clean_code}",
    )
