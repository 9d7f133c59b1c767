"""Self-matching analysis of the sequence floor(j*beta).

Shifting the argument of j |-> floor(j*beta) by a table entry G_i
shifts the value by G_{i-1} at almost every j.  The exceptional
positions admit an exact closed-form enumeration, their membership is
a single fractional-part test, and their density over growing windows
is beta**i.  Whole windows of floors come from one fixed-point sum at a
precision where no error bracket can reach an integer.
Everything here is integer-exact; the only float is the display target
carried by a scan summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .gfib import GFib
from .units import InvariantError, QuadraticUnit, UnitMismatch, ZBeta, beta_pow, mismatch_epsilon


class NotAMismatch(ValueError):
    """Inverse lookup requested for a position that matches."""


class MismatchRecord(NamedTuple):
    """One exceptional position.

    ``k`` is the enumeration index that produced ``j``; ``None`` marks
    the k = 0 record of family a at odd i, the extra element -G_i.
    """

    j: int
    k: Optional[int]
    epsilon: int


@dataclass(frozen=True)
class ScanSummary:
    """Outcome of an exact mismatch count over a symmetric window."""

    i: int
    window: tuple[int, int]
    mismatch_count: int
    frequency: Fraction
    target: float  # beta**i, display approximation only

    def __post_init__(self) -> None:
        if not 0 <= self.frequency <= 1:
            raise ValueError(f"frequency {self.frequency} outside [0, 1]")


def _require(table: GFib, unit: QuadraticUnit, i: int) -> None:
    if table.unit != unit:
        raise UnitMismatch("table belongs to a different unit")
    if i < 1:
        raise ValueError(f"shift index must be >= 1, got {i}")
    if i >= len(table):
        raise IndexError(f"table of length {len(table)} has no entry {i}")


def mismatch_threshold(unit: QuadraticUnit, table: GFib, i: int) -> ZBeta:
    """The threshold t of level i: j is a mismatch iff frac(j*beta) < t
    when eps_i = -1, and iff frac(j*beta) >= t when eps_i = +1 (see
    :func:`mismatch_epsilon`).  So t is beta**i or 1 - beta**i, and the
    mismatches have density beta**i either way.
    """
    p = beta_pow(unit, table, i)
    return p if mismatch_epsilon(unit, i) < 0 else 1 - p


def discrepancy(unit: QuadraticUnit, table: GFib, i: int, j: int) -> int:
    """floor(beta*(j + G_i)) - floor(beta*j) - G_{i-1}.

    Zero exactly at the self-matching positions; otherwise equal to
    ``mismatch_epsilon(unit, i)``.
    """
    _require(table, unit, i)
    return unit.floor_mul(j + table[i]) - unit.floor_mul(j) - table[i - 1]


def is_mismatch(unit: QuadraticUnit, table: GFib, i: int, j: int) -> bool:
    """Exact membership test, decided on the fractional part of j*beta
    against :func:`mismatch_threshold` without evaluating the discrepancy.
    """
    _require(table, unit, i)
    t = mismatch_threshold(unit, table, i)
    # frac(j*beta) < t iff j*beta - floor(j*beta) - t < 0
    below = unit.pair_sign(-unit.floor_mul(j) - t.a, j - t.b) < 0
    return below == (mismatch_epsilon(unit, i) < 0)


@dataclass(frozen=True)
class FloorWindow:
    """Exact floors of j*beta for j in [j0, j0 + len(floors)) and, computed
    from the sums on first read, certified lows: frac((j0 + t)*beta) * 2**bits
    lies in [lows[t], lows[t] + t + 1).  The lists are shared; treat them as read-only.
    """

    j0: int
    bits: int
    floors: list[int]
    sums: range

    @cached_property
    def lows(self) -> list[int]:
        mask = (1 << self.bits) - 1
        lows = [s & mask for s in self.sums]
        if 0 <= -self.j0 < len(lows):
            lows[-self.j0] = 0
        return lows


def floor_window(unit: QuadraticUnit, j0: int, count: int) -> FloorWindow:
    """floor(j*beta) for the count integers j0 <= j < j0 + count, from three
    square roots in all, in place of one per j.

    Proof.  With J = max(|j0|, |j0 + count - 1|, 1), K = bits = bit_length(count)
    + bit_length(J*(isqrt(D) + 1) + 1) makes 2**K exceed count*(J*sqrt(D) + 1)
    and 1/beta.  A = floor(j0*beta*2**K) and P = floor(beta*2**K) >= 1 are exact,
    so x_t = (j0 + t)*beta*2**K lies in [S_t, S_t + t + 1) for S_t = A + t*P.
    Write S_t = q*2**K + r, 0 <= r < 2**K.  If r + t + 1 > 2**K, x_t is within
    t < count of (q + 1)*2**K, so |j*beta - (q + 1)| < 1/(|j|*sqrt(D) + 1).  But
    for j != 0, |p - j*beta|*|p - j*beta'| = |N(p - j*beta)| >= 1 with
    |beta - beta'| = sqrt(D) gives |p - j*beta| > 1/(1 + |j|*sqrt(D)) whenever
    it is below 1.  So floor(j*beta) = q and frac(j*beta)*2**K lies in [r, r + t + 1);
    at j = 0 (from a negative anchor) x_t = 0 and both are 0.  The first floor
    is exact (A >> K); the last is checked against floor_mul.
    """
    if count < 0:
        raise ValueError(f"window length must be >= 0, got {count}")
    last = j0 + count - 1
    bits = count.bit_length() + (max(abs(j0), abs(last), 1) * (math.isqrt(unit.D) + 1) + 1).bit_length()
    step, start = unit.floor_mul(1 << bits), unit.floor_mul(j0 << bits)
    sums = range(start, start + count * step, step)
    floors = [s >> bits for s in sums]
    if j0 < 0 <= last:
        floors[-j0] = 0
    if count and floors[-1] != unit.floor_mul(last):
        raise InvariantError(f"{unit}: the window's floor of {last}*beta, {floors[-1]}, is not floor_mul's")
    return FloorWindow(j0, bits, floors, sums)


def discrepancy_window(unit: QuadraticUnit, table: GFib, i: int, base: FloorWindow) -> list[int]:
    """:func:`discrepancy` at every j of ``base``: the floors of the window
    shifted by G_i minus those of ``base``, minus G_{i-1}."""
    _require(table, unit, i)
    shifted = floor_window(unit, base.j0 + table[i], len(base.floors)).floors
    drop = table[i - 1]
    return [s - b - drop for s, b in zip(shifted, base.floors)]


def mismatch_window(unit: QuadraticUnit, table: GFib, i: int, base: FloorWindow) -> list[bool]:
    """:func:`is_mismatch` at every j of ``base``, decided on its certified
    fractional brackets against q = floor(t * 2**bits) for the level's
    :func:`mismatch_threshold` t, an exact floor with q < t * 2**bits < q + 1.

    A bracket wholly below q lies below t, one from q + 1 up lies above
    it; a mismatch is below t when eps_i = -1 and above it otherwise.  A
    bracket that straddles the threshold goes to :func:`is_mismatch`; at
    j = -G_i frac(j*beta) equals it exactly.
    """
    _require(table, unit, i)
    q = (mismatch_threshold(unit, table, i) * (1 << base.bits)).floor()
    j0 = base.j0
    below = mismatch_epsilon(unit, i) < 0
    above = not below

    def exact(t: int) -> bool:
        return is_mismatch(unit, table, i, j0 + t)

    return [below if low + t < q else above if low > q else exact(t) for t, low in enumerate(base.lows)]


def _position(unit: QuadraticUnit, table: GFib, i: int) -> tuple[int, Callable[[int, int], int]]:
    """The sign s = (-sigma)**i and the closed form (k, floor(s*k*beta)) |->
    j(k) = k*G_{i+1} - eps_i*floor(s*k*beta)*G_i + lo.b of the exceptional
    positions at level i, with lo.b = -G_i when eps_i = +1 and 0 otherwise;
    the caller supplies the floor, one by one or from a :func:`floor_window`.

    j(k) is the b-coordinate of lo + beta**i*frac(s*k*beta) for the level's
    window [lo, lo + beta**i), lo = 0 or 1 - beta**i (see
    :func:`mismatch_threshold`).  x |-> lo + beta**i*x maps the points of
    [0, 1) one-to-one onto those of the window, so each mismatch is j(k) for
    exactly one k, k = 0 included; j(k) increases with k (see :func:`_bracket`).
    G_{i+1} comes from the recurrence, so the table need only reach G_i.
    """
    prev, cur = table[i - 1], table[i]
    succ = unit.m * cur + unit.sign * prev
    eps = mismatch_epsilon(unit, i)
    step, lo_b = eps * cur, -cur if eps > 0 else 0
    return -unit.sign * eps, lambda k, f: k * succ - f * step + lo_b


def _bracket(unit: QuadraticUnit, table: GFib, i: int, x: int) -> tuple[int, int]:
    """c = ceil(beta**i * x) and j(c): every k < c has j(k) < x and every
    k > c has j(k) > x, so j(c) alone settles where x falls in the enumeration.

    Proof.  With r = frac(s*k*beta), beta**-i = G_{i+1} + sigma*G_i*beta and
    eps_i*s = -sigma, beta**i * j(k) = k + beta**i*(eps_i*G_i*r + lo.b) lies
    in [k - beta**i*G_i, k] for either sign of eps_i, and beta**i*G_i =
    (1 - (beta/beta')**i)/sqrt(D) < 1.  So k - 1 < beta**i * j(k) <= k: for
    k < c, beta**i * j(k) <= k < beta**i * x, and for k > c, beta**i * j(k)
    > k - 1 >= beta**i * x.
    """
    s, pos = _position(unit, table, i)
    c = (beta_pow(unit, table, i) * x).ceil()
    return c, pos(c, unit.floor_mul(s * c))


def _last_index(unit: QuadraticUnit, table: GFib, i: int, x: int) -> int:
    """The largest k with j(k) <= x: c of :func:`_bracket` if j(c) <= x, else c - 1."""
    c, j = _bracket(unit, table, i, x)
    return c if j <= x else c - 1


def mismatch_set(unit: QuadraticUnit, table: GFib, i: int, k_lo: int, k_hi: int) -> list[MismatchRecord]:
    """The exceptional positions j(k) of :func:`_position` for k_lo <= k <= k_hi,
    sorted, with floor(s*k*beta) from one :func:`floor_window`, anchored at
    -k_hi and read backwards when s = -1.  The k = 0 record of family a at
    odd i (s = -1), the extra element -G_i, carries k = None.
    """
    _require(table, unit, i)
    if k_lo > k_hi:
        raise ValueError(f"index range {k_lo}..{k_hi} is empty")
    eps = mismatch_epsilon(unit, i)
    s, pos = _position(unit, table, i)
    ks = range(k_lo, k_hi + 1)
    floors = floor_window(unit, k_lo if s > 0 else -k_hi, len(ks)).floors
    if s < 0:
        floors.reverse()
    records = [MismatchRecord(pos(k, f), k, eps) for k, f in zip(ks, floors)]
    if s < 0 and k_lo <= 0 <= k_hi:
        records[-k_lo] = records[-k_lo]._replace(k=None)
    return records


def index_range(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> range:
    """The indices k whose closed-form positions lie in [j_lo, j_hi];
    empty when the window holds none (or j_lo > j_hi)."""
    _require(table, unit, i)
    return range(_last_index(unit, table, i, j_lo - 1) + 1, _last_index(unit, table, i, j_hi) + 1)


def mismatches_between(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> list[MismatchRecord]:
    """The closed-form exceptional positions inside [j_lo, j_hi], sorted;
    empty when the window holds none (or j_lo > j_hi)."""
    ks = index_range(unit, table, i, j_lo, j_hi)
    return mismatch_set(unit, table, i, ks.start, ks.stop - 1) if ks else []


def recover_k(unit: QuadraticUnit, table: GFib, i: int, j: int) -> Optional[int]:
    """Invert the enumeration: the index k whose closed-form position is j,
    which is c of :func:`_bracket` exactly when j(c) = j.

    Returns ``None`` for the extra element -G_i (family a, odd i) and
    raises :class:`NotAMismatch` when j is not exceptional at level i.
    """
    _require(table, unit, i)
    k, got = _bracket(unit, table, i, j)
    if got != j:
        raise NotAMismatch(f"position {j} matches at level {i}")
    return None if k == 0 and _position(unit, table, i)[0] < 0 else k


def coverage_k(unit: QuadraticUnit, table: GFib, i: int, n: int) -> int:
    """Index bound K: every exceptional position in [-n, n] is produced
    by some |k| <= K.  The +2 margin absorbs the bounded fractional
    corrections of the enumeration."""
    _require(table, unit, i)
    return (beta_pow(unit, table, i) * (n + table[i])).ceil() + 2


def brute_force_mismatches(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> list[tuple[int, int]]:
    """Oracle scan: (j, discrepancy) for every exceptional j in
    [j_lo, j_hi], computed purely from floors with no closed forms."""
    _require(table, unit, i)
    out = []
    shift, drop = table[i], table[i - 1]
    fm = unit.floor_mul
    for j in range(j_lo, j_hi + 1):
        e = fm(j + shift) - fm(j) - drop
        if e:
            out.append((j, e))
    return out


def frequency_scan(unit: QuadraticUnit, table: GFib, i: int, n: int) -> ScanSummary:
    """Exact share of exceptional positions among j in [-n, n], counted
    on the enumeration index with O(1) floor evaluations for any n."""
    if n < 0:
        raise ValueError(f"window radius must be >= 0, got {n}")
    _require(table, unit, i)
    count = _last_index(unit, table, i, n) - _last_index(unit, table, i, -n - 1)
    total = 2 * n + 1
    return ScanSummary(
        i=i,
        window=(-n, n),
        mismatch_count=count,
        frequency=Fraction(count, total),
        target=unit.beta_approx() ** i,
    )
