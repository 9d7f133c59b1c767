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

from beattymatch import (
    Family,
    GFib,
    Window,
    ZBeta,
    beta_pow,
    brute_force_mismatches,
    cut_points,
    make_unit,
    mismatches_between,
    run_suites,
    scale_by_conjugate,
    translate,
    unit_interval_points,
)
from beattymatch.cli import main as cli_main
from beattymatch.cutproject import LatticePoint

I_MAX = 12
J_WINDOW = 10_000
FREQ_N = 100_000
FREQ_I_MAX = 10
B_WINDOW = 1_000


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
    _delegate(4, "frequency", freq_n=FREQ_N, freq_i_max=FREQ_I_MAX)


def test_criterion_05_power_identities(units, tables):
    checked = failures = 0
    for u in units:
        t = tables[u]
        beta = ZBeta(0, 1, u)
        folded = beta
        for i in range(1, 61):
            closed = beta_pow(u, t, i)
            squared = beta**i
            checked += 1
            if not (closed == folded and closed == squared):
                failures += 1
            folded = folded * beta
    _report(5, "power-identities", failures, checked)


def test_criterion_06_unit_interval(units):
    checked = failures = 0
    for u in units:
        window = Window(u.element(0, 0), u.element(1, 0))
        got = cut_points(u, window, -B_WINDOW, B_WINDOW)
        want = unit_interval_points(u, -B_WINDOW, B_WINDOW)
        checked += len(want)
        if got != want:
            failures += 1
    _report(6, "unit-interval", failures, checked)


def test_criterion_07_sigma_identities(units):
    checked = failures = 0
    span = 300
    for u in units:
        zero = u.element(0, 0)
        one = u.element(1, 0)
        windows = [
            Window(zero, one),
            Window(u.element(0, 1), one),
            Window(u.element(-1, 1), u.element(0, 1)),
        ]
        for w in windows:
            base = cut_points(u, w, -span, span)
            for t in (-4, 7):
                checked += len(base) + 1
                if cut_points(u, w.shifted(t), -span, span) != translate(base, t):
                    failures += 1
        # scaling: multiplying the physical points by the conjugate shrinks
        # the internal window by beta, in both directions
        plain = Window(zero, one)
        scaled = plain.scaled_by_beta()
        for p in scale_by_conjugate(u, cut_points(u, plain, -span, span)):
            checked += 1
            if not scaled.contains(u.element(p.a, p.b)):
                failures += 1
        for p in cut_points(u, scaled, -span, span):
            if u.family is Family.PLUS:
                q = LatticePoint(p.b + u.m * p.a, p.a)
            else:
                q = LatticePoint(p.b + u.m * p.a, -p.a)
            checked += 1
            if scale_by_conjugate(u, [q]) != [p] or not plain.contains(u.element(q.a, q.b)):
                failures += 1
    _report(7, "sigma-identities", failures, checked)


def test_criterion_08_even_level_bridge(tables):
    checked = failures = 0
    span = 500
    for m in (1, 2, 3):
        u = make_unit(Family.PLUS, m)
        t = tables[u]
        for i in (2, 4):
            positions = [r.j for r in mismatches_between(u, t, i, -span, span)]
            window = Window(u.element(0, 0), beta_pow(u, t, i))
            got = [p.b for p in cut_points(u, window, -span, span)]
            checked += len(positions) + 1
            if got != positions:
                failures += 1
    _report(8, "even-level-bridge", failures, checked)


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
