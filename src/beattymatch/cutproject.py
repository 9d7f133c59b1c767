"""One-dimensional cut-and-project point sets.

A lattice point (a, b) is selected when a + b*beta falls inside a
half-open window; its pattern-space shadow is a + b*conjugate.  Points
are enumerated by the coordinate b, which makes the link between the
level-i window [lo, lo + beta**i), lo = 0 or 1 - beta**i, and the
exceptional positions of the shift analysis a literal list comparison.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import sub
from typing import Iterable, Iterator, NamedTuple

from .beatty import _floor_stream
from .units import QuadraticUnit, UnitMismatch, ZBeta, _Frozen


class LatticePoint(NamedTuple):
    a: int
    b: int


class Window(_Frozen):
    """Half-open interval [lo, hi) with exact ring endpoints."""

    __slots__ = ("lo", "hi")
    lo: ZBeta
    hi: ZBeta

    def __init__(self, lo: ZBeta, hi: ZBeta) -> None:
        # the difference raises UnitMismatch for endpoints of different units
        if (hi - lo).sign() < 0:
            raise ValueError("window endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def unit(self) -> QuadraticUnit:
        return self.lo.unit

    def contains(self, x: ZBeta) -> bool:
        return (x - self.lo).sign() >= 0 and (x - self.hi).sign() < 0

    def shifted(self, t: int) -> "Window":
        return Window(self.lo + t, self.hi + t)

    def scaled_by_beta(self) -> "Window":
        beta = self.unit.element(0, 1)
        return Window(self.lo * beta, self.hi * beta)


def _cut_rows(unit: QuadraticUnit, window: Window, b_lo: int, b_hi: int) -> Iterator[tuple[int, int]]:
    """The plain tuples (a, b) of :func:`cut_points`, in its order, produced
    without a Python frame per point.

    The integers a with lo - b*beta <= a < hi - b*beta run from
    ceil(lo - b*beta) = lo.a - floor((b - lo.b)*beta) up to
    hi.a - floor((b - hi.b)*beta), exclusive; both floors come from one
    :func:`_floor_stream` per endpoint, and one b's run of a is a range, so
    no b-column is held in memory, however wide the window.
    """
    if window.unit != unit:
        raise UnitMismatch("window belongs to a different unit")
    lo, hi = window.lo, window.hi
    bs = range(b_lo, b_hi + 1)
    starts = map(sub, repeat(lo.a), _floor_stream(unit, range(b_lo - lo.b, b_hi + 1 - lo.b)))
    stops = map(sub, repeat(hi.a), _floor_stream(unit, range(b_lo - hi.b, b_hi + 1 - hi.b)))
    return chain.from_iterable(map(zip, map(range, starts, stops), map(repeat, bs)))


def cut_points(unit: QuadraticUnit, window: Window, b_lo: int, b_hi: int) -> list[LatticePoint]:
    """All (a, b) with b_lo <= b <= b_hi and a + b*beta in the window,
    ordered by (b, a); see :func:`_cut_rows`."""
    return list(map(LatticePoint._make, _cut_rows(unit, window, b_lo, b_hi)))


def unit_interval_points(unit: QuadraticUnit, b_lo: int, b_hi: int) -> list[LatticePoint]:
    """Closed form for the window [0, 1): one point per b, namely
    (-floor(b*beta), b)."""
    return [LatticePoint(-unit.floor_mul(b), b) for b in range(b_lo, b_hi + 1)]


def translate(points: Iterable[LatticePoint], t: int) -> list[LatticePoint]:
    """Shift the rational coordinate; matches moving the window by t."""
    return [LatticePoint(p.a + t, p.b) for p in points]


def scale_by_conjugate(unit: QuadraticUnit, points: Iterable[LatticePoint]) -> list[LatticePoint]:
    """Multiply each pattern-space value a + b*conjugate by the conjugate
    root, in coordinates; matches scaling the window by beta."""
    sign, m = unit.sign, unit.m
    # conjugate^2 = sign*(1 - m*conjugate)
    return [LatticePoint(sign * p.b, p.a - sign * m * p.b) for p in points]
