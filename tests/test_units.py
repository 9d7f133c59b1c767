from __future__ import annotations

import math
import operator

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattymatch import DomainError, Family, UnitMismatch, ZBeta, beta_pow, make_unit
from beattymatch.gfib import GFib

from conftest import unit_grid

mp.mp.prec = 192


def beta_mp(unit):
    """The ground truth: beta to 192 bits."""
    root = mp.sqrt(unit.D)
    return (root - unit.m) / 2 if unit.family is Family.PLUS else (unit.m - root) / 2


UNITS = unit_grid()
unit_st = st.sampled_from(UNITS)


# ---------------------------------------------------------------- units


def test_make_unit_discriminants():
    assert make_unit("a", 1).D == 5
    assert make_unit("a", 2).D == 8
    assert make_unit("b", 3).D == 5
    assert make_unit(Family.MINUS, 4).D == 12


def test_make_unit_rejects_out_of_range_m():
    with pytest.raises(DomainError):
        make_unit("a", 0)
    with pytest.raises(DomainError):
        make_unit("a", -2)
    with pytest.raises(DomainError):
        make_unit("b", 2)
    with pytest.raises(DomainError):
        make_unit("b", 0)


def test_direct_construction_checks_discriminant():
    from beattymatch import QuadraticUnit

    assert QuadraticUnit(Family.PLUS, 1).D == 5
    with pytest.raises(DomainError):
        QuadraticUnit(Family.MINUS, 2)
    with pytest.raises(TypeError):
        QuadraticUnit(Family.PLUS, 1, 5)


def test_the_constructor_reads_its_own_family_letter():
    # the letter names the same family as the enum; anything else is refused
    from beattymatch import QuadraticUnit

    assert QuadraticUnit("a", 5) == make_unit(Family.PLUS, 5)
    assert QuadraticUnit("a", 1).floor_mul(10) == 6
    with pytest.raises(DomainError, match="family b requires m >= 3, got m=2"):
        QuadraticUnit("b", 2)
    for family in ("x", 1):
        with pytest.raises(ValueError, match="is not a valid Family"):
            QuadraticUnit(family, 1)


def test_discriminant_is_never_a_square():
    # the reason QuadraticUnit needs no perfect-square or root-product check
    for family, first in ((Family.PLUS, 1), (Family.MINUS, 3)):
        for m in range(first, 10**4 + 1):
            u = make_unit(family, m)
            r = math.isqrt(u.D)
            assert r * r != u.D, u
            assert m * m - u.D == (-4 if family is Family.PLUS else 4), u


def test_conjugate_product_relation():
    for u in UNITS:
        want = -4 if u.family is Family.PLUS else 4
        assert u.m * u.m - u.D == want


def test_beta_approx_in_unit_interval():
    for u in UNITS:
        assert 0.0 < u.beta_approx() < 1.0
        assert abs(u.beta_approx() - float(beta_mp(u))) < 1e-12


# ---------------------------------------------------------------- floors


def test_floor_mul_examples(golden, minus3):
    assert golden.floor_mul(0) == 0
    assert golden.floor_mul(2) == 1
    assert golden.floor_mul(-1) == -1
    assert minus3.floor_mul(6) == 2
    assert [golden.floor_mul(j) for j in range(6)] == [0, 0, 1, 1, 2, 3]
    assert [minus3.floor_mul(j) for j in range(4)] == [0, 0, 0, 1]


def test_floor_mul_exhaustive_against_bigfloat():
    for u in UNITS:
        b = beta_mp(u)
        for j in range(-2000, 2001):
            assert u.floor_mul(j) == int(mp.floor(j * b)), (u, j)


@settings(max_examples=300, deadline=None)
@given(unit_st, st.integers(min_value=-10**6, max_value=10**6))
def test_floor_mul_matches_bigfloat_oracle(u, j):
    assert u.floor_mul(j) == int(mp.floor(j * beta_mp(u)))


@settings(deadline=None)
@given(unit_st, st.integers(min_value=-10**9, max_value=10**9))
def test_floor_identity_is_exact(u, j):
    f = u.floor_mul(j)
    # f <= j*beta < f + 1, decided by exact signs
    assert u.pair_sign(-f, j) >= 0
    assert u.pair_sign(f + 1, -j) > 0


# ---------------------------------------------------------------- signs


def test_sign_examples(golden):
    assert golden.element(0, 0).sign() == 0
    assert golden.element(1, -1).sign() == 1
    assert golden.element(-1, 1).sign() == -1
    assert golden.element(2, -3).sign() == 1


@settings(max_examples=300, deadline=None)
@given(unit_st, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_sign_matches_bigfloat(u, a, b):
    got = u.element(a, b).sign()
    val = a + b * beta_mp(u)
    assert got == int(mp.sign(val))


@given(unit_st, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_sign_is_odd(u, a, b):
    x = u.element(a, b)
    assert (-x).sign() == -x.sign()


def test_zero_iff_both_coordinates_zero(golden):
    assert golden.element(0, 0) == 0
    assert golden.element(0, 0).sign() == 0
    # beta is irrational: no other lattice combination hits zero
    assert golden.element(5, -8).sign() != 0


# ---------------------------------------------------------------- ring laws


coord = st.integers(min_value=-10**5, max_value=10**5)


@given(unit_st, coord, coord, coord, coord, coord, coord)
def test_ring_laws(u, xa, xb, ya, yb, za, zb):
    x, y, z = u.element(xa, xb), u.element(ya, yb), u.element(za, zb)
    one = u.element(1, 0)
    zero = u.element(0, 0)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + zero == x
    assert x - x == zero
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert one * x == x


@given(unit_st, coord, coord, coord, coord)
def test_mul_matches_bigfloat(u, xa, xb, ya, yb):
    x, y = u.element(xa, xb), u.element(ya, yb)
    prod = x * y
    b = beta_mp(u)
    want = (xa + xb * b) * (ya + yb * b)
    got = prod.a + prod.b * b
    assert abs(got - want) < mp.mpf(2) ** -100


def test_mul_reduces_beta_square(golden, minus3):
    assert golden.element(0, 1) * golden.element(0, 1) == golden.element(1, -1)
    assert minus3.element(0, 1) * minus3.element(0, 1) == minus3.element(-1, 3)


def test_int_operands_coerce(golden):
    x = golden.element(2, 1)
    assert x + 3 == golden.element(5, 1)
    assert 3 + x == golden.element(5, 1)
    assert x - 1 == golden.element(1, 1)
    assert 1 - x == golden.element(-1, -1)
    assert x * 2 == golden.element(4, 2)
    assert 2 * x == golden.element(4, 2)
    assert golden.element(7, 0) == 7
    assert hash(golden.element(7, 0)) == hash(7)


def test_cross_unit_arithmetic_raises(golden, minus3):
    with pytest.raises(UnitMismatch):
        golden.element(1, 0) + minus3.element(1, 0)
    with pytest.raises(UnitMismatch):
        golden.element(1, 0) * minus3.element(1, 0)
    with pytest.raises(UnitMismatch):
        golden.element(1, 0) < minus3.element(1, 0)
    assert golden.element(1, 2) != minus3.element(1, 2)


def test_foreign_operands_are_refused(golden):
    x = golden.element(2, 1)
    for other in (1.5, "x"):
        for op in (operator.add, operator.mul, operator.pow):
            with pytest.raises(TypeError):
                op(x, other)
    assert (x == "x") is False
    with pytest.raises(TypeError):
        x < 1.5


@given(unit_st, coord, coord, coord, coord)
def test_comparisons_match_bigfloat(u, xa, xb, ya, yb):
    x, y = u.element(xa, xb), u.element(ya, yb)
    b = beta_mp(u)
    vx, vy = xa + xb * b, ya + yb * b
    assert (x < y) == (vx < vy)
    assert (x <= y) == (vx <= vy)
    assert (x > y) == (vx > vy)


# ---------------------------------------------------------------- floors/ceils of elements


def test_element_floor_ceil_examples(golden):
    assert golden.element(0, 1).floor() == 0
    assert golden.element(0, 1).ceil() == 1
    assert golden.element(-1, 2).floor() == 0
    assert golden.element(3, 0).floor() == 3
    assert golden.element(3, 0).ceil() == 3


@settings(deadline=None)
@given(unit_st, coord, coord)
def test_element_floor_matches_bigfloat(u, a, b):
    x = u.element(a, b)
    val = a + b * beta_mp(u)
    assert x.floor() == int(mp.floor(val))
    assert x.ceil() == int(mp.ceil(val))


# ---------------------------------------------------------------- powers


def test_beta_pow_examples(golden, minus3):
    gt = GFib.build(golden, 10)
    mt = GFib.build(minus3, 10)
    assert beta_pow(golden, gt, 1) == golden.element(0, 1)
    assert beta_pow(golden, gt, 2) == golden.element(1, -1)
    assert beta_pow(golden, gt, 3) == golden.element(-1, 2)
    assert beta_pow(minus3, mt, 2) == minus3.element(-1, 3)


def test_beta_pow_equals_folded_product(units, tables):
    for u in units:
        t = tables[u]
        beta = u.element(0, 1)
        acc = beta
        for i in range(1, 21):
            assert beta_pow(u, t, i) == acc
            assert beta ** i == acc
            acc = acc * beta


def test_beta_pow_index_errors(golden):
    t = GFib.build(golden, 5)
    with pytest.raises(ValueError):
        beta_pow(golden, t, 0)
    with pytest.raises(IndexError):
        beta_pow(golden, t, 6)


def test_beta_pow_rejects_foreign_table(golden, minus3):
    t = GFib.build(minus3, 10)
    with pytest.raises(UnitMismatch):
        beta_pow(golden, t, 2)


def test_pow_rejects_negative(golden):
    with pytest.raises(ValueError):
        golden.element(0, 1) ** -1


def test_pow_zero_is_one(golden):
    assert golden.element(0, 1) ** 0 == golden.element(1, 0)


# ---------------------------------------------------------------- repr/str


def test_str_forms(golden):
    assert str(golden.element(1, -1)) == "1-1*beta"
    assert str(golden) == "beta[a,m=1]"
