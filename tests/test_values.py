"""Value semantics of the package's immutable types: equal arguments give
equal (and, where hashable, equally hashed) objects, the repr text, refused
assignment, copies, and each constructor's errors; and what importing the
package that defines them loads."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from beattymatch import DomainError, Family, GFib, QuadraticUnit, SuiteResult, UnitMismatch, ZBeta, make_unit
from beattymatch.beatty import FloorWindow, floor_window
from beattymatch.cutproject import Window

GOLDEN = make_unit("a", 1)
UNIT_REPR = "QuadraticUnit(family=<Family.PLUS: 'a'>, m=1, sign=1, D=5)"

# name: (build, a value built from other arguments, field names, repr text)
VALUES = {
    "QuadraticUnit": (
        lambda: QuadraticUnit(Family.PLUS, 1),
        make_unit("b", 3),
        ("family", "m", "sign", "D"),
        UNIT_REPR,
    ),
    "ZBeta": (
        lambda: ZBeta(2, -3, GOLDEN),
        ZBeta(2, -3, make_unit("b", 3)),
        ("a", "b", "unit"),
        f"ZBeta(a=2, b=-3, unit={UNIT_REPR})",
    ),
    "GFib": (
        lambda: GFib.build(GOLDEN, 3),
        GFib.build(GOLDEN, 4),
        ("unit", "values"),
        f"GFib(unit={UNIT_REPR}, values=(0, 1, 1, 2))",
    ),
    "FloorWindow": (
        lambda: floor_window(GOLDEN, -2, 4),
        floor_window(GOLDEN, -2, 5),
        ("j0", "bits", "floors", "sums"),
        "FloorWindow(j0=-2, bits=6, floors=[-2, -1, 0, 0], sums=range(-80, 76, 39))",
    ),
    "Window": (
        lambda: Window(GOLDEN.element(0, 0), GOLDEN.element(1, 0)),
        Window(GOLDEN.element(0, 0), GOLDEN.element(0, 1)),
        ("lo", "hi"),
        f"Window(lo=ZBeta(a=0, b=0, unit={UNIT_REPR}), hi=ZBeta(a=1, b=0, unit={UNIT_REPR}))",
    ),
    "SuiteResult": (
        lambda: SuiteResult("range-law", 3, 0),
        SuiteResult("range-law", 3, 1),
        ("name", "checked", "failures", "note"),
        "SuiteResult(name='range-law', checked=3, failures=0, note='')",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_arguments_give_equal_values(name):
    build, other, _, _ = VALUES[name]
    first, second = build(), build()
    assert first is not second and first == second and not first != second
    assert first != other and not first == other
    # a copy or a pickled round trip is an equal value of the same type
    for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert type(twin) is type(first) and twin == first
    if name == "FloorWindow":
        # its floors are a list, so it is unhashable, as its fields are
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", VALUES)
def test_repr_text(name):
    build, _, _, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", VALUES)
def test_fields_refuse_assignment(name):
    build, _, fields, _ = VALUES[name]
    value = build()
    for field in fields:
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is kept


def test_units_work_as_dict_keys():
    # D = 5 for both golden units: family and m, not D alone, tell units apart
    grid = {make_unit("a", 1): "golden", make_unit("b", 3): "minus3", make_unit("a", 2): "silver"}
    assert grid[QuadraticUnit(Family.PLUS, 1)] == "golden"
    assert grid[QuadraticUnit(family=Family.MINUS, m=3)] == "minus3"
    assert len({QuadraticUnit(Family.PLUS, 2), make_unit("a", 2), make_unit(Family.PLUS, 2)}) == 1
    assert make_unit("a", 1) != make_unit("b", 3) and make_unit("a", 1) != "a"


def test_constructor_errors():
    with pytest.raises(TypeError):
        QuadraticUnit(Family.PLUS, 1, 5)
    with pytest.raises(TypeError):
        QuadraticUnit(Family.PLUS, 1, sign=1)
    with pytest.raises(TypeError):
        QuadraticUnit(Family.PLUS)
    with pytest.raises(DomainError, match="family b requires m >= 3, got m=2"):
        QuadraticUnit(Family.MINUS, 2)
    with pytest.raises(DomainError, match="family a requires m >= 1, got m=0"):
        QuadraticUnit(family=Family.PLUS, m=0)
    for m in (2.0, "3", None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make_unit("a", m)
    # an integer-like m is stored as the plain int it stands for
    assert make_unit("a", True) == GOLDEN and repr(make_unit("a", True)) == UNIT_REPR
    with pytest.raises(TypeError):
        ZBeta(1, 2)
    with pytest.raises(TypeError):
        ZBeta(1, 2, GOLDEN, 3)
    with pytest.raises(TypeError):
        GFib(GOLDEN, (0, 1))  # a table is made by GFib.build alone
    with pytest.raises(ValueError, match="table needs at least G_0..G_1, got n=0"):
        GFib.build(GOLDEN, 0)
    with pytest.raises(ValueError, match="a table G_0..G_92682 for m=1 exceeds the cap of 4294967296 bits"):
        GFib.build(GOLDEN, 92_682)
    with pytest.raises(TypeError):
        FloorWindow(0, 6, [0])
    with pytest.raises(ValueError, match="window length must be >= 0, got -1"):
        floor_window(GOLDEN, 0, -1)
    zero, one = GOLDEN.element(0, 0), GOLDEN.element(1, 0)
    with pytest.raises(ValueError, match="window endpoints out of order"):
        Window(one, zero)
    with pytest.raises(UnitMismatch):
        Window(zero, make_unit("b", 3).element(1, 0))
    with pytest.raises(TypeError):
        Window(zero)
    with pytest.raises(TypeError):
        SuiteResult("range-law", 3)
    assert SuiteResult("range-law", 3, 0).note == "" and SuiteResult("range-law", 3, 0).passed
    assert not SuiteResult("range-law", 3, 1, note="see witness").passed


def test_import_loads_no_dataclasses():
    # the value types generate no code at import, so the package loads neither
    # dataclasses nor the inspect machinery that comes with it
    probe = "import sys; before = set(sys.modules); import beattymatch; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    added = set(done.stdout.split())
    assert "beattymatch" in added
    assert not {"dataclasses", "inspect"} & added
