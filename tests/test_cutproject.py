from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattymatch import (
    GFib,
    LatticePoint,
    UnitMismatch,
    Window,
    ZBeta,
    beta_pow,
    coverage_k,
    cut_points,
    mismatch_set,
    scale_by_conjugate,
    translate,
    unit_interval_points,
)
from beattymatch.units import Family

from conftest import unit_grid

UNITS = unit_grid()
TABLES = {u: GFib.build(u) for u in UNITS}
DEEP_TABLES = {u: GFib.build(u, 202) for u in UNITS}
unit_st = st.sampled_from(UNITS)


def window_st(u):
    coords = st.integers(-4, 4)
    return st.tuples(coords, coords, st.integers(0, 3), st.integers(0, 2)).map(
        lambda t: Window(u.element(t[0], t[1]), u.element(t[0] + t[2], t[1] + t[3]))
    )


# ---------------------------------------------------------------- windows


def test_window_validation(golden, minus3):
    one = golden.element(1, 0)
    zero = golden.element(0, 0)
    with pytest.raises(ValueError):
        Window(one, zero)
    with pytest.raises(UnitMismatch):
        Window(zero, minus3.element(1, 0))
    w = Window(zero, zero)
    assert w.is_empty()
    assert not w.contains(zero)


def test_window_contains_half_open(golden):
    w = Window(golden.element(0, 0), golden.element(1, 0))
    assert w.contains(golden.element(0, 0))
    assert w.contains(golden.element(0, 1))       # beta in [0,1)
    assert not w.contains(golden.element(1, 0))   # hi excluded
    assert not w.contains(golden.element(-1, 1))  # beta-1 < 0


# ---------------------------------------------------------------- enumeration


def test_cut_points_examples(golden, minus3):
    zero, one = golden.element(0, 0), golden.element(1, 0)
    assert cut_points(golden, Window(zero, one), 0, 3) == [
        LatticePoint(0, 0),
        LatticePoint(0, 1),
        LatticePoint(-1, 2),
        LatticePoint(-1, 3),
    ]
    assert cut_points(golden, Window(-one, zero), 0, 2) == [
        LatticePoint(-1, 0),
        LatticePoint(-1, 1),
        LatticePoint(-2, 2),
    ]
    mz, mo = minus3.element(0, 0), minus3.element(1, 0)
    assert cut_points(minus3, Window(mz, mo), 1, 3) == [
        LatticePoint(0, 1),
        LatticePoint(0, 2),
        LatticePoint(-1, 3),
    ]


def test_cut_points_empty_window(golden):
    zero = golden.element(0, 0)
    assert cut_points(golden, Window(zero, zero), -5, 5) == []


def test_cut_points_rejects_foreign_window(golden, minus3):
    w = Window(minus3.element(0, 0), minus3.element(1, 0))
    with pytest.raises(UnitMismatch):
        cut_points(golden, w, 0, 1)


@settings(max_examples=80, deadline=None)
@given(unit_st, st.data())
def test_cut_points_sound_and_complete(u, data):
    w = data.draw(window_st(u))
    pts = cut_points(u, w, -40, 40)
    seen = set(pts)
    for p in pts:
        assert w.contains(u.element(p.a, p.b))
    # completeness along each column: the neighbours just outside the
    # emitted block are excluded
    for b in range(-40, 41):
        column = [p.a for p in pts if p.b == b]
        if column:
            assert w.contains(u.element(column[0], b))
            assert not w.contains(u.element(column[0] - 1, b))
            assert not w.contains(u.element(column[-1] + 1, b))
        else:
            # spot-check a few candidates near the window
            base = (w.lo - u.element(0, b)).ceil()
            for a in (base - 1, base, base + 1):
                assert not w.contains(u.element(a, b))
    assert pts == sorted(pts, key=lambda p: (p.b, p.a))
    assert len(seen) == len(pts)


def _cut_points_pointwise(u, w, b_lo, b_hi):
    """The per-b route: a runs from ceil(lo - b*beta) up to ceil(hi - b*beta),
    exclusive, each ceiling an exact ZBeta ceiling."""
    return [
        LatticePoint(a, b)
        for b in range(b_lo, b_hi + 1)
        for a in range(ZBeta(w.lo.a, w.lo.b - b, u).ceil(), ZBeta(w.hi.a, w.hi.b - b, u).ceil())
    ]


# endpoints with a nonzero beta-coordinate, and widths down to the empty window
ENDPOINT_ST = st.sampled_from(((0, 0), (0, -1), (1, -1), (-2, 3), (5, 2)))
WIDTH_ST = st.sampled_from(((0, 0), (1, 0), (0, 1), (1, -1), (2, -1), (7, 3)))


@settings(max_examples=150, deadline=None)
@given(unit_st, st.integers(1, 200), st.sampled_from((-1, 1)), st.integers(-1, 1),
       st.integers(0, 5), ENDPOINT_ST, WIDTH_ST)
def test_cut_points_at_convergent_denominators(u, n, sign, delta, half, lo, width):
    # cut_points reads floor((b - lo.b)*beta) and floor((b - hi.b)*beta) from
    # two floor windows; (b - lo.b)*beta is closest to an integer at
    # b - lo.b = +-G_n, where the windows take their exact carry path
    centre = sign * DEEP_TABLES[u][n] + delta + lo[1]
    w = Window(u.element(*lo), u.element(lo[0] + width[0], lo[1] + width[1]))
    b_lo, b_hi = centre - half, centre + half
    assert cut_points(u, w, b_lo, b_hi) == _cut_points_pointwise(u, w, b_lo, b_hi)


def test_cut_points_empty_ranges(golden, minus3):
    for u in (golden, minus3):
        w = Window(u.element(1, -1), u.element(2, 0))
        assert cut_points(u, w, 3, 2) == []
        assert cut_points(u, w, 5, 5) == _cut_points_pointwise(u, w, 5, 5)
        assert cut_points(u, Window(w.lo, w.lo), -30, 30) == []


# ---------------------------------------------------------------- closed forms


def test_unit_interval_examples(golden, minus3):
    assert unit_interval_points(golden, 0, 3) == [
        LatticePoint(0, 0),
        LatticePoint(0, 1),
        LatticePoint(-1, 2),
        LatticePoint(-1, 3),
    ]
    assert unit_interval_points(minus3, 1, 3) == [
        LatticePoint(0, 1),
        LatticePoint(0, 2),
        LatticePoint(-1, 3),
    ]


def test_unit_interval_matches_enumeration(units):
    for u in units:
        w = Window(u.element(0, 0), u.element(1, 0))
        assert cut_points(u, w, -300, 300) == unit_interval_points(u, -300, 300)


# ---------------------------------------------------------------- translation


def test_translate_example(golden):
    pts = [LatticePoint(0, 0), LatticePoint(-1, 2)]
    assert translate(pts, -1) == [LatticePoint(-1, 0), LatticePoint(-2, 2)]


@settings(max_examples=60, deadline=None)
@given(unit_st, st.integers(-3, 3), st.data())
def test_translation_identity(u, t, data):
    w = data.draw(window_st(u))
    moved = cut_points(u, w.shifted(t), -30, 30)
    assert moved == translate(cut_points(u, w, -30, 30), t)


# ---------------------------------------------------------------- conjugate scaling


def test_scale_examples(golden, minus3):
    assert scale_by_conjugate(golden, [LatticePoint(0, 1)]) == [LatticePoint(1, -1)]
    assert scale_by_conjugate(minus3, [LatticePoint(0, 1)]) == [LatticePoint(-1, 3)]


def _preimage(u, p):
    if u.family is Family.PLUS:
        return LatticePoint(p.b + u.m * p.a, p.a)
    return LatticePoint(p.b + u.m * p.a, -p.a)


@given(unit_st, st.integers(-50, 50), st.integers(-50, 50))
def test_scale_round_trip(u, a, b):
    p = LatticePoint(a, b)
    assert _preimage(u, scale_by_conjugate(u, [p])[0]) == p


@settings(max_examples=60, deadline=None)
@given(unit_st, st.data())
def test_scaling_identity_two_sided(u, data):
    w = data.draw(window_st(u))
    span = 30
    src = cut_points(u, w, -span, span)
    image = scale_by_conjugate(u, src)
    if not image:
        return
    b_vals = [q.b for q in image]
    target = cut_points(u, w.scaled_by_beta(), min(b_vals), max(b_vals))
    target_set = set(target)
    image_set = set(image)
    for q in image:
        assert q in target_set
    for q in target:
        if -span <= _preimage(u, q).b <= span:
            assert q in image_set


# ---------------------------------------------------------------- bridge to the shift analysis


def test_even_level_window_reproduces_mismatch_positions(units):
    for u in units:
        if u.family is not Family.PLUS:
            continue
        t = TABLES[u]
        for i in (2, 4):
            span = 200
            w = Window(u.element(0, 0), beta_pow(u, t, i))
            got = [p.b for p in cut_points(u, w, -span, span)]
            cap = coverage_k(u, t, i, span)
            want = [r.j for r in mismatch_set(u, t, i, -cap, cap) if -span <= r.j <= span]
            assert got == want
