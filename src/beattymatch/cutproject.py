"""One-dimensional cut-and-project point sets.

A lattice point (a, b) is selected when a + b*beta falls inside a
half-open window; its pattern-space shadow is a + b*conjugate.  Points
are enumerated by the coordinate b, which makes the link between
window [0, beta**i) and the exceptional positions of the shift
analysis a literal list comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .beatty import floor_window
from .units import Family, QuadraticUnit, UnitMismatch, ZBeta


@dataclass(frozen=True)
class LatticePoint:
    a: int
    b: int


@dataclass(frozen=True)
class Window:
    """Half-open interval [lo, hi) with exact ring endpoints."""

    lo: ZBeta
    hi: ZBeta

    def __post_init__(self) -> None:
        if self.lo.unit != self.hi.unit:
            raise UnitMismatch("window endpoints belong to different units")
        if (self.hi - self.lo).sign() < 0:
            raise ValueError("window endpoints out of order")

    @property
    def unit(self) -> QuadraticUnit:
        return self.lo.unit

    def is_empty(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: ZBeta) -> bool:
        return (x - self.lo).sign() >= 0 and (x - self.hi).sign() < 0

    def shifted(self, t: int) -> "Window":
        return Window(self.lo + t, self.hi + t)

    def scaled_by_beta(self) -> "Window":
        beta = self.unit.element(0, 1)
        return Window(self.lo * beta, self.hi * beta)


def cut_points(unit: QuadraticUnit, window: Window, b_lo: int, b_hi: int) -> list[LatticePoint]:
    """All (a, b) with b_lo <= b <= b_hi and a + b*beta in the window,
    ordered by (b, a).

    The integers a with lo - b*beta <= a < hi - b*beta run from
    ceil(lo - b*beta) = lo.a - floor((b - lo.b)*beta) up to
    hi.a - floor((b - hi.b)*beta), exclusive; both floors come from one
    :func:`floor_window` per endpoint.
    """
    if window.unit != unit:
        raise UnitMismatch("window belongs to a different unit")
    lo, hi = window.lo, window.hi
    bs = range(b_lo, b_hi + 1)
    lows = floor_window(unit, b_lo - lo.b, len(bs)).floors
    highs = floor_window(unit, b_lo - hi.b, len(bs)).floors
    return [LatticePoint(a, b) for b, fl, fh in zip(bs, lows, highs) for a in range(lo.a - fl, hi.a - fh)]


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
    m = unit.m
    if unit.family is Family.PLUS:
        # conjugate^2 = 1 - m*conjugate
        return [LatticePoint(p.b, p.a - m * p.b) for p in points]
    # conjugate^2 = m*conjugate - 1
    return [LatticePoint(-p.b, p.a + m * p.b) for p in points]
