from __future__ import annotations

import pytest

from beattymatch import Family, GFib, beatty
from beattymatch.gfib import MAX_TABLE_BITS
from beattymatch.verify import SUITES, default_units, render_report, run_suites


def test_default_grid_composition():
    grid = default_units()
    assert [(u.family, u.m) for u in grid] == [
        (Family.PLUS, 1),
        (Family.PLUS, 2),
        (Family.PLUS, 3),
        (Family.MINUS, 3),
        (Family.MINUS, 4),
        (Family.MINUS, 5),
    ]


def test_all_suites_pass_on_small_grid():
    results = run_suites(i_max=5, window=400, freq_n=4000, b_span=60)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.checked > 0


def test_suite_selection_order_is_canonical():
    results = run_suites(names=["set-equivalence", "range-law"], i_max=3, window=100)
    assert [r.name for r in results] == ["set-equivalence", "range-law"]


def test_frequency_levels_past_i_max_get_a_long_enough_table():
    # the frequency suite runs levels 1..i_max, on tables sized from i_max
    (result,) = run_suites(names=["frequency"], i_max=70, freq_n=10)
    assert result.passed and result.checked == 6 * 70


def test_frequency_note_is_the_exact_worst_remainder():
    (result,) = run_suites(names=["frequency"], i_max=3, freq_n=0)
    # at n = 0 the count is 1 exactly at family a, even i; the worst
    # |count - beta**i| is 1 - beta**2 = 3*beta = 0.9083... for family a,
    # m = 3, floored to 3 decimals
    assert result.note == "max-remainder=0.908"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(names=["no-such-suite"])
    with pytest.raises(ValueError):
        run_suites(names=["range-law"], window=-1)
    with pytest.raises(ValueError):
        run_suites(names=["unit-interval"], b_span=-1)


def test_negative_frequency_radius_refused(monkeypatch):
    # refused before any suite runs, whichever suites are named
    monkeypatch.setattr(GFib, "build", classmethod(lambda cls, unit, n: pytest.fail("table built")))
    for names in (None, ["range-law"], ["frequency"]):
        with pytest.raises(ValueError, match="radius n"):
            run_suites(names=names, freq_n=-1)


def test_levels_below_one_refused():
    # a level-indexed suite at i_max < 1 would check nothing and pass
    for i_max in (0, -3):
        with pytest.raises(ValueError, match="i_max"):
            run_suites(names=["range-law", "frequency", "level-bridge"], i_max=i_max)


def test_table_cap_holds_for_the_whole_grid(monkeypatch):
    # each table alone stays far below MAX_TABLE_BITS at these levels; the
    # six of the default grid together reach it between 25 705 and 25 706
    built = []
    monkeypatch.setattr(GFib, "build", classmethod(lambda cls, unit, n: built.append((unit, n))))
    assert run_suites(names=[], i_max=25_705) == []
    assert built == [(u, 25_705) for u in default_units()]
    assert sum(GFib.size_bound(u, 25_705) for u in default_units()) <= MAX_TABLE_BITS
    del built[:]
    with pytest.raises(ValueError, match="tables"):
        run_suites(names=[], i_max=25_706)
    assert built == []
    assert all(GFib.size_bound(u, 25_706) <= MAX_TABLE_BITS for u in default_units())


def test_fault_injection_breaks_equivalence_only():
    results = run_suites(
        names=["range-law", "criterion-equivalence", "set-equivalence"],
        i_max=4,
        window=120,
        fault_j=0,
    )
    by_name = {r.name: r for r in results}
    assert by_name["range-law"].passed
    assert by_name["set-equivalence"].passed
    assert not by_name["criterion-equivalence"].passed
    assert by_name["criterion-equivalence"].failures > 0


def test_position_suites_count_one_failure_per_missing_position(monkeypatch):
    # dropping two positions at every level costs each list-comparing suite
    # two failures for the positions plus one for the level, and leaves
    # checked as in the clean run, whose union is the same set
    names, sizes = ["set-equivalence", "level-bridge"], dict(i_max=3, window=1000, b_span=1000)
    clean = run_suites(names=names, **sizes)
    plain = beatty.mismatches_between

    def drop_two(unit, table, i, j_lo, j_hi):
        records = plain(unit, table, i, j_lo, j_hi)
        assert len(records) > 2, (unit, i)
        return records[2:]

    monkeypatch.setattr(beatty, "mismatches_between", drop_two)
    faulted = run_suites(names=names, **sizes)
    for c, f in zip(clean, faulted):
        assert c.passed
        assert f.failures == 3 * 3 * len(default_units()), f
        assert f.checked == c.checked, (c, f)


def test_report_shape():
    results = run_suites(names=["power-identities"], i_max=4)
    text = render_report(results)
    lines = text.splitlines()
    assert lines[0].startswith("suite")
    assert any("power-identities" in line and "PASS" in line for line in lines)
    assert lines[-1] == "overall: PASS"


def test_report_marks_failures():
    results = run_suites(names=["criterion-equivalence"], i_max=3, window=80, fault_j=5)
    text = render_report(results)
    assert "FAIL" in text
    assert text.strip().endswith("overall: FAIL")
