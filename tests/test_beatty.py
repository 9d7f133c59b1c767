from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattymatch import (
    Family,
    GFib,
    InvariantError,
    NotAMismatch,
    ScanSummary,
    UnitMismatch,
    ZBeta,
    beta_pow,
    brute_force_mismatches,
    coverage_k,
    discrepancy,
    floor_window,
    frequency_scan,
    is_mismatch,
    make_unit,
    mismatch_epsilon,
    mismatch_set,
    mismatch_window,
    mismatches_between,
    recover_k,
)
from beattymatch import beatty
from beattymatch.beatty import _position, index_range
from beattymatch.units import QuadraticUnit

from conftest import unit_grid

UNITS = unit_grid()
TABLES = {u: GFib.build(u) for u in UNITS}
DEEP_TABLES = {u: GFib.build(u, 202) for u in UNITS}
unit_st = st.sampled_from(UNITS)
level_st = st.integers(min_value=1, max_value=12)


# ---------------------------------------------------------------- discrepancy


def test_discrepancy_examples(golden, minus3):
    gt, mt = TABLES[UNITS[0]], GFib.build(minus3)
    assert discrepancy(golden, gt, 2, 0) == -1
    assert discrepancy(golden, gt, 2, 1) == 0
    assert discrepancy(golden, gt, 1, -1) == 1
    assert discrepancy(minus3, mt, 1, 2) == 1


def test_discrepancy_index_validation(golden):
    t = GFib.build(golden, 5)
    with pytest.raises(ValueError):
        discrepancy(golden, t, 0, 1)
    with pytest.raises(IndexError):
        discrepancy(golden, t, 6, 1)


def test_discrepancy_rejects_foreign_table(golden, minus3):
    with pytest.raises(UnitMismatch):
        discrepancy(golden, TABLES[UNITS[3]], 1, 0)


@given(unit_st, level_st, st.integers(-10**5, 10**5))
def test_discrepancy_range_law(u, i, j):
    assert discrepancy(u, TABLES[u], i, j) in (0, mismatch_epsilon(u, i))


def test_mismatch_epsilon_values():
    a1 = UNITS[0]
    b3 = UNITS[3]
    assert mismatch_epsilon(a1, 1) == 1
    assert mismatch_epsilon(a1, 2) == -1
    assert mismatch_epsilon(a1, 3) == 1
    assert mismatch_epsilon(b3, 1) == 1
    assert mismatch_epsilon(b3, 2) == 1


def test_shift_certificate():
    # floor(x + G_i*beta) - floor(x) = floor(G_i*beta) + [frac(x) >= 1 - frac(G_i*beta)]
    # for every real x.  With floor(G_i*beta) = G_{i-1} + (eps - 1)/2 and
    # frac(G_i*beta) + t = 1, exactly in Z[beta], the discrepancy at x = j*beta
    # is eps*[frac(j*beta) < t] (eps = -1) or [frac(j*beta) >= t] (eps = +1):
    # the range law and the one-threshold rule for every integer j.
    units = [make_unit("a", m) for m in range(1, 41)] + [make_unit("b", m) for m in range(3, 43)]
    for u in units:
        t = GFib.build(u, 400)
        for i in range(1, 401):
            eps = mismatch_epsilon(u, i)
            f = u.floor_mul(t[i])
            assert f - t[i - 1] == (eps - 1) // 2, (u, i)
            assert ZBeta(-f, t[i], u) + beatty.mismatch_threshold(u, t, i) == 1, (u, i)


# ---------------------------------------------------------------- membership


def test_is_mismatch_examples(golden, minus3):
    gt, mt = TABLES[UNITS[0]], TABLES[UNITS[3]]
    assert is_mismatch(golden, gt, 2, 2) is True
    assert is_mismatch(golden, gt, 2, 1) is False
    assert is_mismatch(minus3, mt, 1, -1) is True
    assert is_mismatch(golden, gt, 1, 0) is False


@given(unit_st, level_st, st.integers(-10**5, 10**5))
def test_membership_equals_nonzero_discrepancy(u, i, j):
    t = TABLES[u]
    assert is_mismatch(u, t, i, j) == (discrepancy(u, t, i, j) != 0)


def test_boundary_membership_is_exact(minus3):
    # frac(-beta) == 1 - beta sits exactly on the closed lower edge
    t = TABLES[UNITS[3]]
    assert is_mismatch(minus3, t, 1, -1) is True


# ---------------------------------------------------------------- closed-form sets


def test_mismatch_set_examples(golden, minus3):
    gt, mt = TABLES[UNITS[0]], TABLES[UNITS[3]]
    assert [(r.j, r.k, r.epsilon) for r in mismatch_set(golden, gt, 2, 0, 2)] == [
        (0, 0, -1),
        (2, 1, -1),
        (5, 2, -1),
    ]
    assert [(r.j, r.k) for r in mismatch_set(golden, gt, 1, -1, 3)] == [
        (-2, -1),
        (-1, None),
        (1, 1),
        (3, 2),
        (4, 3),
    ]
    assert [(r.j, r.k, r.epsilon) for r in mismatch_set(minus3, mt, 1, 0, 3)] == [
        (-1, 0, 1),
        (2, 1, 1),
        (5, 2, 1),
        (7, 3, 1),
    ]


def test_mismatch_set_extra_element_only_at_odd_levels(golden):
    t = TABLES[UNITS[0]]
    for i in (1, 3, 5):
        recs = mismatch_set(golden, t, i, 0, 0)
        assert [(r.j, r.k) for r in recs] == [(-t[i], None)]
    for i in (2, 4, 6):
        recs = mismatch_set(golden, t, i, 0, 0)
        assert [(r.j, r.k) for r in recs] == [(0, 0)]


def test_minus_family_k0_element(minus3):
    t = TABLES[UNITS[3]]
    for i in (1, 2, 3):
        recs = mismatch_set(minus3, t, i, 0, 0)
        assert [(r.j, r.k) for r in recs] == [(-t[i], 0)]


def test_mismatch_set_rejects_empty_range(golden):
    with pytest.raises(ValueError):
        mismatch_set(golden, TABLES[UNITS[0]], 1, 3, 1)


def test_every_enumerated_position_is_a_mismatch(units):
    for u in units:
        t = TABLES[u]
        for i in range(1, 9):
            for r in mismatch_set(u, t, i, -30, 30):
                assert is_mismatch(u, t, i, r.j), (u, i, r)
                assert discrepancy(u, t, i, r.j) == r.epsilon


# ---------------------------------------------------------------- brute force


def test_brute_force_examples(golden, minus3):
    gt, mt = TABLES[UNITS[0]], TABLES[UNITS[3]]
    assert brute_force_mismatches(golden, gt, 2, 0, 6) == [(0, -1), (2, -1), (5, -1)]
    assert brute_force_mismatches(minus3, mt, 1, -2, 8) == [(-1, 1), (2, 1), (5, 1), (7, 1)]
    assert brute_force_mismatches(golden, gt, 1, 5, 4) == []


@settings(max_examples=60, deadline=None)
@given(unit_st, st.integers(1, 8), st.integers(-3000, 3000))
def test_set_equivalence_windows(u, i, center):
    t = TABLES[u]
    lo, hi = center - 150, center + 150
    brute = brute_force_mismatches(u, t, i, lo, hi)
    span = max(abs(lo), abs(hi))
    cap = coverage_k(u, t, i, span)
    predicted = [(r.j, r.epsilon) for r in mismatch_set(u, t, i, -cap, cap) if lo <= r.j <= hi]
    assert predicted == brute


# ---------------------------------------------------------------- inverse lookup


def test_recover_k_examples(golden, minus3):
    gt, mt = TABLES[UNITS[0]], TABLES[UNITS[3]]
    assert recover_k(golden, gt, 2, 5) == 2
    assert recover_k(golden, gt, 2, 0) == 0
    assert recover_k(minus3, mt, 1, 7) == 3
    assert recover_k(golden, gt, 1, -1) is None  # the extra element -G_1
    with pytest.raises(NotAMismatch):
        recover_k(golden, gt, 2, 1)


def test_recover_k_round_trip(units):
    for u in units:
        t = TABLES[u]
        for i in range(1, 9):
            for r in mismatch_set(u, t, i, -25, 25):
                assert recover_k(u, t, i, r.j) == r.k, (u, i, r)


def test_routines_need_the_table_only_up_to_g_i(units):
    # the closed form derives G_{i+1} from the recurrence, so a table that
    # ends at G_i serves every routine at level i
    i = 12
    for u in units:
        short, deep = GFib.build(u, i), TABLES[u]
        records = mismatch_set(u, short, i, -5, 5)
        assert records == mismatch_set(u, deep, i, -5, 5)
        lo, hi = records[0].j, records[-1].j
        assert mismatches_between(u, short, i, lo, hi) == mismatches_between(u, deep, i, lo, hi) == records
        assert [recover_k(u, short, i, r.j) for r in records] == [r.k for r in records]


# ---------------------------------------------------------------- scans


def test_frequency_scan_tiny_windows(golden):
    t = TABLES[UNITS[0]]
    s0 = frequency_scan(golden, t, 1, 0)
    assert s0.window == (0, 0)
    assert s0.frequency in (Fraction(0), Fraction(1))
    assert s0.frequency == 0  # j=0 matches at level 1
    s1 = frequency_scan(golden, t, 1, 1)
    assert s1.frequency.denominator == 3
    with pytest.raises(ValueError):
        frequency_scan(golden, t, 1, -1)


def test_scan_summary_frequency_bounds(monkeypatch, golden):
    # a count outside 0..2n + 1 puts the frequency outside [0, 1]: a failed
    # internal check (still a ValueError), raised before any summary is built
    t = TABLES[UNITS[0]]
    for ks in (range(5, 2), range(0, 22), range(-1, 21)):
        monkeypatch.setattr(beatty, "index_range", lambda *args, ks=ks: ks)
        with pytest.raises(InvariantError, match=r"outside \[0, 1\]"):
            frequency_scan(golden, t, 1, 10)
    # both ends of the range are accepted
    for ks in (range(3, 3), range(0, 21)):
        monkeypatch.setattr(beatty, "index_range", lambda *args, ks=ks: ks)
        s = frequency_scan(golden, t, 1, 10)
        assert s.mismatch_count == len(ks) and s.frequency == Fraction(len(ks), 21)


def test_frequency_scan_counts_match_membership(units):
    for u in units:
        t = TABLES[u]
        for i in range(1, 9):
            want = sum(is_mismatch(u, t, i, j) for j in range(-400, 401))
            assert frequency_scan(u, t, i, 400).mismatch_count == want


@settings(max_examples=40, deadline=None)
@given(unit_st, st.integers(1, 10), st.integers(-2000, 2000), st.integers(0, 400))
def test_index_bracket_equals_membership(u, i, lo, span):
    t = TABLES[u]
    hi = lo + span
    want = sum(is_mismatch(u, t, i, j) for j in range(lo, hi + 1))
    ks = index_range(u, t, i, lo, hi)
    assert ks.stop - ks.start == want


@settings(max_examples=60, deadline=None)
@given(unit_st, level_st, st.integers(1, 200), st.sampled_from((-1, 1)),
       st.integers(-1, 1), st.integers(0, 60))
def test_mismatches_between_at_convergent_denominators(u, i, n, sign, delta, half):
    # j*beta is closest to an integer at j = +-G_n, so the index bracket
    # has the least room there
    t = DEEP_TABLES[u]
    centre = sign * t[n] + delta
    lo, hi = centre - half, centre + half
    want = [j for j in range(lo, hi + 1) if is_mismatch(u, t, i, j)]
    assert [r.j for r in mismatches_between(u, t, i, lo, hi)] == want
    ks = index_range(u, t, i, lo, hi)
    assert ks.stop - ks.start == len(want)


def test_frequency_count_has_bounded_remainder(units):
    # a window of length beta**i in Z + Z*beta is a bounded-remainder set
    # (Kesten 1966): the count misses beta**i*(2n+1) by less than 2 at
    # every n, here up to 10**30 and at the convergent denominators
    for u in units:
        t = DEEP_TABLES[u]
        radii = [0, 1, 2] + [10**e for e in range(1, 31)]
        radii += [t[n] + d for n in (5, 20, 60) for d in (-1, 0, 1)]
        for i in range(1, 13):
            for n in radii:
                count = frequency_scan(u, t, i, n).mismatch_count
                # exact ZBeta sign tests, no float
                gap = u.element(count, 0) - beta_pow(u, t, i) * (2 * n + 1)
                assert -2 < gap < 2, (u, i, n, count)


def test_frequency_approaches_target(golden):
    t = TABLES[UNITS[0]]
    s = frequency_scan(golden, t, 1, 10_000)
    assert abs(float(s.frequency) - s.target) < 5e-3
    assert s.mismatch_count == sum(is_mismatch(golden, t, 1, j) for j in range(-10_000, 10_001))


def test_coverage_bound_captures_all_window_indices(units):
    for u in units:
        t = TABLES[u]
        for i in range(1, 9):
            n = 500
            cap = coverage_k(u, t, i, n)
            for j, _ in brute_force_mismatches(u, t, i, -n, n):
                k = recover_k(u, t, i, j)
                if k is not None:
                    assert abs(k) <= cap, (u, i, j, k, cap)


# ---------------------------------------------------------------- floor window


def _mp_floor(u, j):
    """floor(j*beta) by mpmath at 192 bits, or more for large j: rounding
    cannot cross an integer since |j*beta - p| > 1/(|j|*(sqrt(D) + 1))."""
    with mp.workprec(max(192, 2 * abs(j).bit_length() + 64)):
        root = mp.sqrt(u.D)
        beta = (root - u.m) / 2 if u.family is Family.PLUS else (u.m - root) / 2
        return int(mp.floor(j * beta))


def _check_window(u, w, count):
    """Floors against floor_mul; each fractional bracket by exact sign tests:
    lows[t] <= (j*beta - floor)*2**bits < lows[t] + t + 1."""
    assert len(w.floors) == len(w.lows) == count
    for t, (f, low) in enumerate(zip(w.floors, w.lows)):
        j = w.j0 + t
        assert f == u.floor_mul(j), (u, w.j0, t)
        scaled = f << w.bits
        assert u.pair_sign(-scaled - low, j << w.bits) >= 0, (u, w.j0, t, low)
        assert u.pair_sign(-scaled - low - t - 1, j << w.bits) < 0, (u, w.j0, t, low)


def _counting_floor_mul(monkeypatch):
    calls = []
    plain = QuadraticUnit.floor_mul

    def floor_mul(self, j):
        calls.append(j)
        return plain(self, j)

    monkeypatch.setattr(QuadraticUnit, "floor_mul", floor_mul)
    return calls


# each routine that takes (unit, table, i), with its remaining arguments for the golden unit
GOLDEN_WINDOW = floor_window(UNITS[0], -3, 7)
LEVEL_ROUTINES = [
    (discrepancy, (0,)),
    (is_mismatch, (0,)),
    (beatty.mismatch_threshold, ()),
    (mismatch_window, (GOLDEN_WINDOW,)),
    (mismatch_set, (0, 2)),
    (beatty.index_range, (-5, 5)),
    (mismatches_between, (-5, 5)),
    (recover_k, (-5,)),
    (coverage_k, (10,)),
    (brute_force_mismatches, (-5, 5)),
    (frequency_scan, (10,)),
    (beta_pow, ()),
]


@pytest.mark.parametrize("routine, args", LEVEL_ROUTINES, ids=[r.__name__ for r, _ in LEVEL_ROUTINES])
def test_level_contract(monkeypatch, golden, minus3, routine, args):
    # GFib.level refuses a foreign table, i < 1 and i past the table before any floor is taken
    t = GFib.build(golden, 5)
    calls = _counting_floor_mul(monkeypatch)
    refusals = [
        (UnitMismatch, GFib.build(minus3, 5), 1),
        (ValueError, t, 0),
        (ValueError, t, -1),
        (IndexError, t, len(t)),
    ]
    for exc, table, i in refusals:
        with pytest.raises(exc):
            routine(golden, table, i, *args)
        assert calls == [], (exc, i)
    # the last level of the table is accepted (recover_k: -G_5 is the extra element)
    routine(golden, t, len(t) - 1, *args)


def test_level_accepts_an_equal_unit_and_refuses_another(monkeypatch):
    # GFib.level passes the table's own unit by identity and an equal one by
    # equality; another unit's table is still refused before any floor
    t = GFib.build(make_unit("a", 1), 5)
    twin = make_unit("a", 1)
    assert twin is not t.unit
    calls = _counting_floor_mul(monkeypatch)
    assert t.level(twin, 3) == (t[2], t[3])
    assert frequency_scan(twin, t, 3, 10) == frequency_scan(t.unit, t, 3, 10)
    del calls[:]
    with pytest.raises(UnitMismatch):
        t.level(make_unit("a", 2), 3)
    with pytest.raises(UnitMismatch):
        frequency_scan(make_unit("a", 2), t, 3, 10)
    assert calls == []


def test_floor_window_at_convergent_denominators(monkeypatch):
    # j*beta is closest to an integer at j = +-G_n, and is one at j = 0
    # reached from the anchor -1: there too every bracket must stay off the
    # next integer, and a window costs the same floor_mul calls as anywhere
    calls = _counting_floor_mul(monkeypatch)
    width = 4
    for u in UNITS:
        t = DEEP_TABLES[u]
        anchors = [-1, 0] + [s * t[n] + d for n in range(1, 201) for s in (1, -1) for d in (-1, 0, 1)]
        costs = set()
        for j0 in anchors:
            del calls[:]
            w = floor_window(u, j0, width)
            costs.add(len(calls))
            _check_window(u, w, width)
            assert w.floors == [_mp_floor(u, j) for j in range(j0, j0 + width)], (u, j0)
        assert costs == {3}, (u, costs)


def test_floor_window_refuses_a_drifting_step(monkeypatch):
    # a step one too large moves the t-th sum up by t; the last floor alone
    # rarely sees it at this precision, the sum bracket at the last j does
    plain = QuadraticUnit.floor_mul
    # the step is floor_mul(1 << bits), the one power of two among the window's arguments
    monkeypatch.setattr(QuadraticUnit, "floor_mul", lambda self, j: plain(self, j) + (j > 0 and j & (j - 1) == 0))
    for u in UNITS:
        with pytest.raises(InvariantError, match="disagree with floor_mul"):
            floor_window(u, 3, 100)


def test_floor_window_edges():
    u = UNITS[0]
    assert floor_window(u, 7, 0).floors == []
    _check_window(u, floor_window(u, -3, 1), 1)
    with pytest.raises(ValueError):
        floor_window(u, 0, -1)


def test_floor_window_around_zero():
    # beta of family b at m = 10**6 is about 1e-6: the precision must still
    # give floor(beta*2**bits) >= 1 for a one-point window at j = 0
    _check_window(make_unit("b", 10**6), floor_window(make_unit("b", 10**6), 0, 1), 1)
    # windows that start, end or straddle j = 0, where j*beta is an integer
    for u in UNITS:
        for j0, count in ((-5, 6), (0, 6), (-1, 3), (-1, 2), (0, 1), (-7, 8)):
            _check_window(u, floor_window(u, j0, count), count)


def _members(u, t, i, base):
    """mismatch_window's offsets, checked to increase strictly."""
    members = mismatch_window(u, t, i, base)
    assert all(a < b for a, b in zip(members, members[1:])), (u, i, base.j0, members)
    return members


def test_mismatch_window_at_exact_thresholds(monkeypatch):
    # frac(-G_i*beta) equals the membership threshold exactly: beta**i
    # (family a, even i) or 1 - beta**i, so the bracket straddles it and
    # the exact test must decide, at the window's first point and inside it
    fallbacks = []
    exact = beatty.is_mismatch
    monkeypatch.setattr(beatty, "is_mismatch", lambda u, t, i, j: fallbacks.append(j) or exact(u, t, i, j))
    for u in UNITS:
        t = DEEP_TABLES[u]
        for i in range(1, 41):
            del fallbacks[:]
            windows = [(-t[i] + d, 3) for d in (-1, 0, 1)] + [(-t[i] - 40, 81)]
            for j0, count in windows:
                base = floor_window(u, j0, count)
                js = range(j0, j0 + count)
                assert _members(u, t, i, base) == [o for o, j in enumerate(js) if exact(u, t, i, j)], (u, i, j0)
                shifted = floor_window(u, j0 + t[i], count)
                diffs = [s - b - t[i - 1] for s, b in zip(shifted.floors, base.floors)]
                assert diffs == [discrepancy(u, t, i, j) for j in js], (u, i, j0)
            assert fallbacks.count(-t[i]) == 3, (u, i, fallbacks)


def _closed_form_position(u, t, i, k):
    """j(k) of the paper's enumeration, one floor_mul per k and G_{i+1}
    read from the table."""
    cur, succ = t[i], t[i + 1]
    if u.family is Family.MINUS:
        return k * succ - (u.floor_mul(k) + 1) * cur
    if k == 0:
        return -cur if i % 2 else 0
    return k * succ + u.floor_mul(k) * cur


def test_mismatch_set_at_convergent_denominators(monkeypatch):
    # mismatch_set takes floor(k*beta) from one floor window; at k = +-G_n,
    # where k*beta is closest to an integer, that window costs the same
    # floor_mul calls as anywhere, and every record must still equal the
    # pointwise closed form
    calls = _counting_floor_mul(monkeypatch)
    for u in UNITS:
        t = DEEP_TABLES[u]
        costs = set()
        for i in (1, 2, 5):
            eps = mismatch_epsilon(u, i)
            for k_lo in [s * t[n] - 1 for n in range(1, 201) for s in (1, -1)] + [-1, 0]:
                del calls[:]
                got = mismatch_set(u, t, i, k_lo, k_lo + 2)
                costs.add(len(calls))
                ks = range(k_lo, k_lo + 3)
                want = [(_closed_form_position(u, t, i, k), k, eps) for k in ks]
                assert [(r.j, r.k, r.epsilon) for r in got] == [
                    (j, None if k == 0 and u.family is Family.PLUS and i % 2 else k, e) for j, k, e in want
                ], (u, i, k_lo)
        assert costs == {3}, (u, costs)


def test_inverse_lookups_cost_two_floors_per_end(monkeypatch):
    # one ceil of beta**i*x and one j(c) settle each end of a window, at
    # random x and at x = +-G_n + delta (delta = -1, 0, 1 in turn), where
    # x*beta is closest to an integer: index_range(x, x) has two ends
    calls = _counting_floor_mul(monkeypatch)
    rng = random.Random(17)
    xs = [rng.randrange(-10**30, 10**30) for _ in range(40)]
    for u in UNITS:
        t = DEEP_TABLES[u]
        points = xs + [s * t[n] + n % 3 - 1 for n in range(1, 201) for s in (1, -1)]
        costs = set()
        for i in range(1, 13):
            for x in points:
                del calls[:]
                index_range(u, t, i, x, x)
                costs.add(("range", len(calls)))
                del calls[:]
                try:
                    recover_k(u, t, i, x)
                except NotAMismatch:
                    pass
                costs.add(("recover", len(calls)))
                del calls[:]
                frequency_scan(u, t, i, abs(x))
                costs.add(("scan", len(calls)))
        assert costs == {("range", 4), ("recover", 2), ("scan", 4)}, (u, costs)


def test_inverse_lookups_read_the_level_once(monkeypatch):
    # index_range, frequency_scan and recover_k read (G_{i-1}, G_i) once per
    # call, both ends of a window included, at random x and at x = +-G_n + delta
    reads = []
    plain = GFib.level

    def level(self, unit, i):
        reads.append(i)
        return plain(self, unit, i)

    monkeypatch.setattr(GFib, "level", level)
    rng = random.Random(23)
    xs = [rng.randrange(-10**30 + 1, 10**30) for _ in range(20)]
    for u in UNITS:
        t = DEEP_TABLES[u]
        points = xs + [s * t[n] + n % 3 - 1 for n in range(1, 201, 9) for s in (1, -1)]
        for i in range(1, 13):
            for x in points:
                del reads[:]
                index_range(u, t, i, x, x)
                try:
                    recover_k(u, t, i, x)
                except NotAMismatch:
                    pass
                summary = frequency_scan(u, t, i, abs(x))
                assert reads == [i, i, i], (u, i, x, reads)
                # the summary is a named tuple of five fields, in order
                n = abs(x)
                count = summary.mismatch_count
                assert summary == (i, (-n, n), count, Fraction(count, 2 * n + 1), summary.target)
                assert (summary.i, summary.window, summary.frequency) == (i, (-n, n), Fraction(count, 2 * n + 1))
    assert ScanSummary._fields == ("i", "window", "mismatch_count", "frequency", "target")


CEIL_UNITS = [make_unit("a", m) for m in (1, 2, 3, 7)] + [make_unit("b", m) for m in (3, 4, 5, 9)]


def test_bracket_ceiling_equals_ring_route():
    # _position's bracket takes c = ceil(beta**i * x) from integers alone; the ring
    # element beta**i * x is an independent route to it, checked at random x
    # and at x = +-G_n + delta, where x*beta is closest to an integer
    rng = random.Random(19)
    xs = [rng.randrange(-10**40 + 1, 10**40) for _ in range(40)]
    for u in CEIL_UNITS:
        t = GFib.build(u, 200)
        points = sorted(set(xs + [s * t[n] + d for n in range(201) for s in (1, -1) for d in (-1, 0, 1)]))
        for i in range(1, 81):
            p = beta_pow(u, t, i)
            bracket = _position(u, t, i)[2]
            for x in points:
                assert bracket(x)[0] == (p * x).ceil(), (u, i, x)


def test_recover_k_and_windows_at_convergent_denominators():
    # at j = +-G_n, far past 64 bits for n up to 200, frac(j*beta) is closest
    # to 0 or 1, the ends of every level's window; levels 1 and 5 of family a
    # read floor(s*k*beta) with s = -1, levels 2 and 6 and family b with s = +1
    for u in UNITS:
        t = DEEP_TABLES[u]
        for i in (1, 2, 5, 6):
            for j0 in [s * t[n] - 2 for n in range(1, 201) for s in (1, -1)]:
                records = mismatches_between(u, t, i, j0, j0 + 4)
                assert [(r.j, r.epsilon) for r in records] == brute_force_mismatches(u, t, i, j0, j0 + 4), (u, i, j0)
                ks = {r.j: r.k for r in records}
                for j in range(j0, j0 + 5):
                    if is_mismatch(u, t, i, j):
                        assert recover_k(u, t, i, j) == ks[j], (u, i, j)
                    else:
                        with pytest.raises(NotAMismatch):
                            recover_k(u, t, i, j)


@settings(max_examples=80, deadline=None)
@given(unit_st, level_st, st.integers(-2**450, 2**450), st.integers(0, 64))
def test_window_kernel_at_random_anchors(u, i, j0, count):
    t = TABLES[u]
    base = floor_window(u, j0, count)
    _check_window(u, base, count)
    js = range(j0, j0 + count)
    shifted = floor_window(u, j0 + t[i], count)
    diffs = [s - b - t[i - 1] for s, b in zip(shifted.floors, base.floors)]
    assert diffs == [discrepancy(u, t, i, j) for j in js]
    assert _members(u, t, i, base) == [o for o, j in enumerate(js) if is_mismatch(u, t, i, j)]


@settings(max_examples=80, deadline=None)
@given(unit_st, level_st, st.integers(-2**450, 2**450))
def test_recover_k_equals_threshold_criterion_at_random_j(u, i, j):
    # recover_k decides on the closed form alone, so the threshold test of
    # is_mismatch is an independent route to the same answer; the position
    # of index j is a mismatch, so both answers are checked at every level
    t = TABLES[u]
    placed = mismatch_set(u, t, i, j, j)[0].j
    assert is_mismatch(u, t, i, placed)
    for x in (j, placed):
        if not is_mismatch(u, t, i, x):
            with pytest.raises(NotAMismatch):
                recover_k(u, t, i, x)
            continue
        k = recover_k(u, t, i, x)
        index = 0 if k is None else k
        assert mismatch_set(u, t, i, index, index)[0] == (x, k, mismatch_epsilon(u, i))
