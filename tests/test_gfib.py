from __future__ import annotations

import pytest

from beattymatch import Family, GFib, ZBeta, beta_pow, make_unit
from beattymatch.gfib import MAX_TABLE_BITS


def test_golden_table():
    u = make_unit("a", 1)
    assert list(GFib.build(u, 7)) == [0, 1, 1, 2, 3, 5, 8, 13]


def test_pell_table():
    u = make_unit("a", 2)
    assert list(GFib.build(u, 5)) == [0, 1, 2, 5, 12, 29]


def test_minus_family_table():
    u = make_unit("b", 3)
    assert list(GFib.build(u, 5)) == [0, 1, 3, 8, 21, 55]


def test_minimal_table():
    u = make_unit("a", 1)
    t = GFib.build(u, 1)
    assert list(t) == [0, 1]
    assert len(t) == 2
    with pytest.raises(ValueError):
        GFib.build(u, 0)


def test_default_length(units):
    for u in units:
        assert len(GFib.build(u)) == 65  # G_0..G_64


def test_build_holds_g_0_to_g_n(units):
    for u in units:
        for n in (1, 12, 70):
            assert len(GFib.build(u, n)) == n + 1  # G_0..G_n


def test_build_refuses_tables_past_the_bit_cap():
    # n**2 * bit_length(m) / 2 against MAX_TABLE_BITS, decided before the
    # first entry is filled; the widest legal tables are never built here
    for m, widest in ((1, 92681), (10**6, 20724)):
        u = make_unit("a", m)
        assert GFib.size_bound(u, widest) <= MAX_TABLE_BITS < GFib.size_bound(u, widest + 1)
        with pytest.raises(ValueError, match=f"exceeds the cap of {MAX_TABLE_BITS} bits"):
            GFib.build(u, widest + 1)


def test_recurrence_holds_everywhere(units, tables):
    for u in units:
        t = tables[u]
        sign = 1 if u.family is Family.PLUS else -1
        for n in range(len(t) - 2):
            assert t[n + 2] == u.m * t[n + 1] + sign * t[n]


def test_monotone_growth(units, tables):
    # nondecreasing from G_1 (G_1 == G_2 == 1 when family a, m=1),
    # strictly increasing from G_2 onward
    for u in units:
        t = tables[u]
        for n in range(1, len(t) - 1):
            assert t[n + 1] >= t[n]
        for n in range(2, len(t) - 1):
            assert t[n + 1] > t[n]


def test_shift_law(units, tables):
    # the next entry is what the closed forms lean on
    for u in units:
        t = tables[u]
        sign = 1 if u.family is Family.PLUS else -1
        for i in range(1, 40):
            assert t[i + 1] == u.m * t[i] + sign * t[i - 1]


def test_power_identity_spot_checks(units, tables):
    for u in units:
        for i in (1, 2, 3, 7, 20):
            assert beta_pow(u, tables[u], i) == ZBeta(0, 1, u) ** i
