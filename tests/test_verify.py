from __future__ import annotations

import pytest

from beattymatch import (
    Family,
    GFib,
    InvariantError,
    MismatchRecord,
    beatty,
    brute_force_mismatches,
    cli,
    cutproject,
    discrepancy,
    is_mismatch,
    make_unit,
    mismatch_epsilon,
    verify,
)
from beattymatch.gfib import MAX_TABLE_BITS
from beattymatch.verify import MAX_WINDOW, POWER_I_MAX, SUITES, default_units, render_report, run_suites

WINDOW_SUITES = ["range-law", "criterion-equivalence", "set-equivalence"]


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
    # the frequency suite runs levels 1..i_max, on tables sized from i_max: the
    # remainder check at each, the exact route at each with G_i <= MAX_WINDOW
    (result,) = run_suites(names=["frequency"], i_max=70, freq_n=10)
    exact = sum(GFib.build(u, 70)[i] <= MAX_WINDOW for u in default_units() for i in range(1, 71))
    assert result.passed and result.checked == 6 * 70 + exact
    assert result.note.endswith(" exact-skipped=a1:i27-70,a2:i15-70,a3:i11-70,b3:i14-70,b4:i10-70,b5:i9-70")


def test_frequency_note_is_the_exact_worst_remainder():
    (result,) = run_suites(names=["frequency"], i_max=3, freq_n=0)
    # at n = 0 the count is 1 exactly at family a, even i; the worst
    # |count - beta**i| is 1 - beta**2 = 3*beta = 0.9083... for family a,
    # m = 3, floored to 3 decimals
    assert result.note == "max-remainder=0.908 exact-skipped=none"


def test_frequency_suite_fails_a_count_off_by_one(monkeypatch):
    # the bounded remainder alone passes a count one too high at most levels;
    # the exact route fails a count off by one either way at every level it checks
    plain = verify.beatty.index_range
    for step in (1, -1):
        def shifted(*args, step=step):
            ks = plain(*args)
            return range(ks.start, ks.stop + step)

        monkeypatch.setattr(verify.beatty, "index_range", shifted)
        (result,) = run_suites(names=["frequency"], i_max=4, freq_n=1000)
        assert result.checked == 2 * 6 * 4 and result.failures >= 6 * 4, (step, result)


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


def test_a_suite_that_raises_fails_alone(monkeypatch, capsys):
    # a broken routine fails the suites that use it, names them in the report
    # and exits 2; it is not a refusal of the arguments (exit 1)
    def broken(unit, j0, count):
        raise InvariantError(f"{unit}: planted window fault")

    monkeypatch.setattr(verify.beatty, "floor_window", broken)
    law, power = run_suites(names=["range-law", "power-identities"], i_max=3, window=50)
    assert (law.name, law.checked, law.failures) == ("range-law", 0, 1)
    assert "planted window fault" in law.note
    assert power.name == "power-identities" and power.passed
    assert cli.main(["verify", "--suite", "range-law", "--suite", "power-identities"]) == 2
    out, err = capsys.readouterr()
    assert "planted window fault" in out and "overall: FAIL" in out
    assert err == ""


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


def test_fault_outside_the_window_refused(monkeypatch):
    # a fault that lands on no position would leave the negative control passing
    monkeypatch.setattr(GFib, "build", classmethod(lambda cls, unit, n: pytest.fail("table built")))
    for fault_j in (101, -101, 20_000):
        with pytest.raises(ValueError, match="injects nothing"):
            run_suites(names=["criterion-equivalence"], i_max=2, window=100, fault_j=fault_j)


def test_fault_without_criterion_equivalence_refused(monkeypatch):
    # only criterion-equivalence injects the fault; without it the run would pass
    monkeypatch.setattr(GFib, "build", classmethod(lambda cls, unit, n: pytest.fail("table built")))
    for names in (["range-law"], ["set-equivalence", "frequency"], []):
        with pytest.raises(ValueError, match="injects nothing"):
            run_suites(names=names, fault_j=0)


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


def _seam_windows(table, g_max=40):
    """W = 0 and, for every level 1..12 with G_i <= g_max, each W with
    G_i = 2W - 1, 2W, 2W + 1 or W: where a level's shifted floors stop or
    start being a slice of the unit's shared floor window."""
    ws = {0}
    for g in (table[i] for i in range(1, 13)):
        if g <= g_max:
            ws |= {w for w in ((g + 1) // 2, g // 2, (g - 1) // 2, g) if g in (2 * w - 1, 2 * w, 2 * w + 1, w)}
    return sorted(ws)


def test_window_suites_at_level_seams():
    # the differences of every level equal the pointwise discrepancy, and the
    # three suites report the tallies of the pointwise oracles, whether a
    # level's shifted floors are a slice of the shared window or its own
    for u in default_units():
        tables = {u: GFib.build(u, 12)}
        t = tables[u]
        for w in _seam_windows(t):
            js = range(-w, w + 1)
            law, crit, sets = [0, 0], [0, 0], [0, 0]
            levels = list(verify._level_windows([u], tables, 12, w))
            assert [i for _, _, i, *_ in levels] == list(range(1, 13)), (u, w)
            for _, _, i, base, drop, d in levels:
                disc = [discrepancy(u, t, i, j) for j in js]
                assert base.floors == [u.floor_mul(j) for j in js], (u, w)
                assert [x - drop for x in d] == disc, (u, w, i)
                hits = [is_mismatch(u, t, i, j) for j in js]
                law[0] += len(js)
                law[1] += sum(e not in (0, mismatch_epsilon(u, i)) for e in disc)
                crit[0] += len(js)
                crit[1] += sum((e != 0) != hit for e, hit in zip(disc, hits))
                want = brute_force_mismatches(u, t, i, -w, w)
                got = [(r.j, r.epsilon) for r in beatty.mismatches_between(u, t, i, -w, w)]
                union, odd = {j for j, _ in got} | {j for j, _ in want}, {j for j, _ in got} ^ {j for j, _ in want}
                sets[0] += len(union) + 1
                sets[1] += 0 if got == want else len(odd) + 1
            results = run_suites(names=WINDOW_SUITES, units=[u], i_max=12, window=w)
            assert [[r.checked, r.failures] for r in results] == [law, crit, sets], (u, w)


def test_level_windows_slice_the_shared_window_that_reaches(monkeypatch):
    # each unit builds one shared floor window; a level takes its shifted
    # floors as a slice of it when G_i <= 2W, and otherwise builds a window
    # of its own at G_i - W, and either way its differences are the
    # pointwise discrepancy
    builds = []
    plain = beatty.floor_window
    monkeypatch.setattr(beatty, "floor_window", lambda u, j0, count: builds.append(j0) or plain(u, j0, count))
    for u in default_units():
        tables = {u: GFib.build(u, 12)}
        t = tables[u]
        for w in _seam_windows(t):
            js = range(-w, w + 1)
            del builds[:]
            levels = list(verify._level_windows([u], tables, 8, w))
            assert builds == [-w] + [t[i] - w for i in range(1, 9) if t[i] > 2 * w], (u, w, builds)
            for _, _, i, _, drop, d in levels:
                assert [x - drop for x in d] == [discrepancy(u, t, i, j) for j in js], (u, w, i)


# one unit of family a at window 29, which is a level-2 and level-4 mismatch
PIN_UNIT, PIN_WINDOW, PIN_LEVELS = make_unit("a", 2), 29, 4


def _last_moved_outside(records, j_lo, j_hi):
    return [records[-1]._replace(j=j_lo - 1)] + records[:-1]


def _first_twice(records, j_lo, j_hi):
    return records[:1] + records[:-1]


def _first_moved_to_a_match(records, j_lo, j_hi):
    taken = {r.j for r in records}
    j = next(j for j in range(j_lo, j_hi + 1) if j not in taken)
    return sorted(records[1:] + [MismatchRecord(j, None, 0)], key=lambda r: r.j)


def _first_with_the_wrong_sign(records, j_lo, j_hi):
    return [records[0]._replace(epsilon=-records[0].epsilon)] + records[1:]


@pytest.mark.parametrize(
    "corrupt, checked, failures",
    [
        # (checked, failures) as the exact position tally reports them
        (_last_moved_outside, 50, 12),
        (_first_twice, 46, 8),
        (_first_moved_to_a_match, 50, 12),
        (_first_with_the_wrong_sign, 46, 4),
    ],
)
def test_set_equivalence_counts_only_records_it_can_trust(monkeypatch, corrupt, checked, failures):
    # each corrupt list keeps its length, and the first three would pass a
    # bare count: a record at -W - 1 reads d[-1] (here the level-2 and level-4
    # mismatch at W), a duplicate reads one place twice and eps = 0 matches a match
    u, w = PIN_UNIT, PIN_WINDOW
    t = GFib.build(u, PIN_LEVELS)
    assert is_mismatch(u, t, 2, w) and is_mismatch(u, t, 4, w)
    plain = beatty.mismatches_between
    monkeypatch.setattr(beatty, "mismatches_between", lambda *a: corrupt(plain(*a), a[3], a[4]))
    (result,) = run_suites(names=["set-equivalence"], units=[u], i_max=PIN_LEVELS, window=w)
    assert (result.checked, result.failures) == (checked, failures)


@pytest.mark.parametrize(
    "fault_j, failures",
    [
        (-5, 2),  # a +1 mismatch at levels 1 and 3, where adding 1 keeps it nonzero
        (0, 4),  # a -1 mismatch at levels 2 and 4, where adding 1 makes it a match
        (1, 4),  # a match at every level
    ],
)
def test_criterion_equivalence_fault_counts(fault_j, failures):
    u, w = PIN_UNIT, PIN_WINDOW
    t = GFib.build(u, PIN_LEVELS)
    assert [discrepancy(u, t, i, fault_j) for i in range(1, PIN_LEVELS + 1)] == {
        -5: [1, 0, 1, 0],
        0: [0, -1, 0, -1],
        1: [0, 0, 0, 0],
    }[fault_j]
    (result,) = run_suites(names=["criterion-equivalence"], units=[u], i_max=PIN_LEVELS, window=w, fault_j=fault_j)
    assert (result.checked, result.failures) == (4 * (2 * w + 1), failures)


# ---------------------------------------------------------------- planted faults, one per check

FAULT_B_SPAN = 30
GRID_SIZE = len(default_units())


def _run_alone(name):
    (result,) = run_suites(names=[name], i_max=4, freq_n=100, b_span=FAULT_B_SPAN)
    return result


def _sigma_point_counts():
    """(points of the sample windows, points of their beta-scaled images) over the grid."""
    src = scaled = 0
    for u in default_units():
        for w in verify._sample_windows(u):
            src += len(cutproject.cut_points(u, w, -FAULT_B_SPAN, FAULT_B_SPAN))
            scaled += len(cutproject.cut_points(u, w.scaled_by_beta(), -FAULT_B_SPAN, FAULT_B_SPAN))
    return src, scaled


def test_frequency_remainder_check_fails_a_wrong_power(monkeypatch):
    # beta**i one too large moves the remainder by 2n + 1 at every level;
    # the exact route never reads beta**i and still passes
    plain = verify.beta_pow
    monkeypatch.setattr(verify, "beta_pow", lambda u, t, i: plain(u, t, i) + 1)
    result = _run_alone("frequency")
    assert (result.checked, result.failures) == (2 * GRID_SIZE * 4, GRID_SIZE * 4)


def test_power_identities_fail_a_wrong_power(monkeypatch):
    plain = verify.beta_pow
    monkeypatch.setattr(verify, "beta_pow", lambda u, t, i: plain(u, t, i) + 1 if i == 7 else plain(u, t, i))
    result = _run_alone("power-identities")
    assert (result.checked, result.failures) == (GRID_SIZE * POWER_I_MAX, GRID_SIZE)


def test_unit_interval_fails_a_missing_point(monkeypatch):
    plain = cutproject.unit_interval_points
    monkeypatch.setattr(cutproject, "unit_interval_points", lambda u, b_lo, b_hi: plain(u, b_lo, b_hi)[1:])
    result = _run_alone("unit-interval")
    assert (result.checked, result.failures) == (GRID_SIZE * 2 * FAULT_B_SPAN, GRID_SIZE)


def test_sigma_translation_check_fails_a_wrong_translate(monkeypatch):
    # one failure per unit, sample window and shift: every sample window holds points
    plain = cutproject.translate
    clean = _run_alone("sigma-identities")
    monkeypatch.setattr(cutproject, "translate", lambda points, t: plain(points, t + 1))
    result = _run_alone("sigma-identities")
    assert (result.checked, result.failures) == (clean.checked, GRID_SIZE * 6 * 4)


def test_sigma_scaling_check_fails_a_wrong_scale(monkeypatch):
    # an image moved by 1 leaves the scaled window, whose length is below 1, and
    # no longer equals the point its preimage came from: every point fails once
    plain = cutproject.scale_by_conjugate
    clean = _run_alone("sigma-identities")
    monkeypatch.setattr(cutproject, "scale_by_conjugate",
                        lambda u, points: [cutproject.LatticePoint(p.a + 1, p.b) for p in plain(u, points)])
    result = _run_alone("sigma-identities")
    assert (result.checked, result.failures) == (clean.checked, sum(_sigma_point_counts()))


def test_sigma_preimage_check_fails_a_wrong_preimage(monkeypatch):
    # only the points of the scaled windows are mapped back
    plain = verify._conjugate_preimage
    clean = _run_alone("sigma-identities")
    monkeypatch.setattr(verify, "_conjugate_preimage", lambda u, p: plain(u, cutproject.LatticePoint(p.a + 1, p.b)))
    result = _run_alone("sigma-identities")
    assert (result.checked, result.failures) == (clean.checked, _sigma_point_counts()[1])


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


DEFAULT_REPORT = """\
suite                       checked  failures  status
range-law                   1440072         0  PASS
criterion-equivalence       1440072         0  PASS
set-equivalence               80111         0  PASS
frequency                       135         0  PASS  max-remainder=0.881 exact-skipped=a3:i11-12,b4:i10-12,b5:i9-12
power-identities                360         0  PASS
unit-interval                  2406         0  PASS
sigma-identities              53764         0  PASS
level-bridge                   1682         0  PASS
overall: PASS
"""


def test_default_report_is_pinned():
    # the default verify report, byte for byte: a change that moves any
    # suite's counts or note, or the layout, shows here
    assert render_report(run_suites()) == DEFAULT_REPORT
