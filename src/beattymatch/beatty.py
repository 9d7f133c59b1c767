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
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .gfib import GFib
from .units import InvariantError, QuadraticUnit, ZBeta, _Frozen, beta_pow, mismatch_epsilon

# j per floor window of a floor stream, and rows per block of a streamed CLI document
BLOCK_ROWS = 1 << 12


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


class ScanSummary(NamedTuple):
    """Outcome of an exact mismatch count over a symmetric window, as
    :func:`frequency_scan` returns it with its count checked."""

    i: int
    window: tuple[int, int]
    mismatch_count: int
    frequency: Fraction
    target: float  # beta**i, display approximation only


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
    drop, shift = table.level(unit, i)
    return unit.floor_mul(j + shift) - unit.floor_mul(j) - drop


def is_mismatch(unit: QuadraticUnit, table: GFib, i: int, j: int) -> bool:
    """Exact membership test, decided on the fractional part of j*beta
    against :func:`mismatch_threshold`, whose beta-coordinate is -G_i: it reads
    floor(j*beta) and floor((j + G_i)*beta), the floors :func:`discrepancy`
    reads, so the criterion-equivalence suite's independent route is the
    certified brackets of :func:`mismatch_window`.
    """
    t = mismatch_threshold(unit, table, i)
    # frac(j*beta) < t iff j*beta - floor(j*beta) - t < 0
    below = unit.pair_sign(-unit.floor_mul(j) - t.a, j - t.b) < 0
    return below == (mismatch_epsilon(unit, i) < 0)


class FloorWindow(_Frozen):
    """Exact floors of j*beta for j in [j0, j0 + len(floors)) and, computed
    from the sums on first read, certified lows: frac((j0 + t)*beta) * 2**bits
    lies in [lows[t], lows[t] + t + 1).  The lists are shared; treat them as read-only.
    """

    # __dict__ holds what the cached properties compute
    __slots__ = ("j0", "bits", "floors", "sums", "__dict__")
    j0: int
    bits: int
    floors: list[int]
    sums: range

    def __init__(self, j0: int, bits: int, floors: list[int], sums: range) -> None:
        object.__setattr__(self, "j0", j0)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "floors", floors)
        object.__setattr__(self, "sums", sums)

    @cached_property
    def lows(self) -> list[int]:
        mask = (1 << self.bits) - 1
        lows = [s & mask for s in self.sums]
        if 0 <= -self.j0 < len(lows):
            lows[-self.j0] = 0
        return lows

    @cached_property
    def order(self) -> list[int]:
        """The offsets t sorted by lows[t], computed once per window when read."""
        return sorted(range(len(self.lows)), key=self.lows.__getitem__)


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
    is exact (A >> K); at the last j, F = floor(x_t) from floor_mul is checked
    to lie in the sum's bracket [S_t, S_t + t] and to give the last floor, F >> K.
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
    if count:
        exact = unit.floor_mul(last << bits)
        if not 0 <= exact - sums[-1] < count or floors[-1] != exact >> bits:
            raise InvariantError(f"{unit}: the window's sum {sums[-1]} and floor {floors[-1]} at {last}*beta "
                                 f"disagree with floor_mul's {exact} at 2**{bits} times it")
    return FloorWindow(j0, bits, floors, sums)


def _floor_stream(unit: QuadraticUnit, js: range) -> Iterator[int]:
    """floor(j*beta) for j in js (step +1 or -1), in the order of js, from one
    :func:`floor_window` per block of BLOCK_ROWS j, built as the stream reaches
    it; a block of step -1 reads its window backwards.  The blocks are slices
    of js, so a range longer than sys.maxsize streams too, and they are
    chained, so no Python frame runs per floor."""

    def blocks() -> Iterator[Iterable[int]]:
        at = 0
        while block := js[at:at + BLOCK_ROWS]:
            floors = floor_window(unit, min(block[0], block[-1]), len(block)).floors
            yield floors if block.step > 0 else reversed(floors)
            at += BLOCK_ROWS

    return chain.from_iterable(blocks())


def mismatch_window(unit: QuadraticUnit, table: GFib, i: int, base: FloorWindow) -> list[int]:
    """The offsets t, increasing, of the j = base.j0 + t where :func:`is_mismatch`
    holds, decided on the certified fractional brackets [lows[t], lows[t] + t + 1)
    against q = floor(h * 2**bits) for the level's :func:`mismatch_threshold` h,
    an exact floor with q < h * 2**bits < q + 1.

    A bracket wholly below q lies below h, one from q + 1 up lies above
    it; a mismatch is below h when eps_i = -1 and above it otherwise.  As
    t < n = len(base.lows), every low below q - n is wholly below q, so only
    the lows in [q - n, q], found by bisecting ``base.order``, are decided
    one by one.  A bracket that straddles the threshold goes to
    :func:`is_mismatch`; at j = -G_i frac(j*beta) equals it exactly.
    """
    q = (mismatch_threshold(unit, table, i) * (1 << base.bits)).floor()
    lows, order = base.lows, base.order
    first = bisect_left(order, q - len(lows), key=lows.__getitem__)
    last = bisect_right(order, q, key=lows.__getitem__)
    below = mismatch_epsilon(unit, i) < 0
    members = order[:first] if below else order[last:]
    for t in order[first:last]:
        if below if lows[t] + t < q else is_mismatch(unit, table, i, base.j0 + t):
            members.append(t)
    members.sort()
    return members


def _position(
    unit: QuadraticUnit, table: GFib, i: int
) -> tuple[int, Callable[[int, int], int], Callable[[int], tuple[int, int]]]:
    """The level's one read of the table: the sign s = (-sigma)**i, the closed
    form (k, floor(s*k*beta)) |-> j(k) = k*G_{i+1} - eps_i*floor(s*k*beta)*G_i
    + lo.b of the exceptional positions at level i, lo.b = -G_i when eps_i = +1
    and 0 otherwise (the caller supplies the floor), and the bracket x |-> (c,
    j(c)), c = ceil(beta**i * x): every k < c has j(k) < x and every k > c has
    j(k) > x, so j(c) alone settles where x falls in the enumeration.

    j(k) is the b-coordinate of lo + beta**i*frac(s*k*beta) for the level's
    window [lo, lo + beta**i), lo = 0 or 1 - beta**i (see
    :func:`mismatch_threshold`).  x |-> lo + beta**i*x maps the points of
    [0, 1) one-to-one onto those of the window, so each mismatch is j(k) for
    exactly one k, k = 0 included.  G_{i+1} comes from the recurrence, so the
    table need only reach G_i.  As beta**i = eps_i*(G_i*beta - G_{i-1}),
    c = -eps_i*G_{i-1}*x - floor(-eps_i*G_i*x*beta), from integers alone.

    Proof of the bracket.  With r = frac(s*k*beta), beta**-i = G_{i+1} +
    sigma*G_i*beta and eps_i*s = -sigma, beta**i * j(k) = k +
    beta**i*(eps_i*G_i*r + lo.b) lies in [k - beta**i*G_i, k] for either sign
    of eps_i, and beta**i*G_i = (1 - (beta/beta')**i)/sqrt(D) < 1.  So k - 1 <
    beta**i * j(k) <= k, and j(k) increases with k: for k < c, beta**i * j(k)
    <= k < beta**i * x, and for k > c, beta**i * j(k) > k - 1 >= beta**i * x.
    """
    prev, cur = table.level(unit, i)
    succ = unit.m * cur + unit.sign * prev
    eps = mismatch_epsilon(unit, i)
    s, step, lo_b, drop = -unit.sign * eps, eps * cur, -cur if eps > 0 else 0, eps * prev

    def pos(k: int, f: int) -> int:
        return k * succ - f * step + lo_b

    def bracket(x: int) -> tuple[int, int]:
        c = -drop * x - unit.floor_mul(-step * x)
        return c, pos(c, unit.floor_mul(s * c))

    return s, pos, bracket


def _mismatch_column(
    unit: QuadraticUnit, table: GFib, i: int, ks: range, special: object
) -> tuple[int, Iterator[int], Iterable]:
    """eps_i, the positions j(k) of :func:`_position` for k in ks, in order,
    with floor(s*k*beta) from :func:`_floor_stream` over s*ks, and the k
    column: ks, with ``special`` in place of k = 0 when s = -1, where
    j(0) = -G_i is the extra element of family a at odd i."""
    s, pos, _ = _position(unit, table, i)
    column: Iterable = ks
    if s < 0 and 0 in ks:
        column = chain(range(ks.start, 0), [special], range(1, ks.stop))
    floors = _floor_stream(unit, range(s * ks.start, s * ks.stop, s))
    return mismatch_epsilon(unit, i), map(pos, ks, floors), column


def mismatch_set(unit: QuadraticUnit, table: GFib, i: int, k_lo: int, k_hi: int) -> list[MismatchRecord]:
    """The exceptional positions j(k) of :func:`_position` for k_lo <= k <= k_hi,
    sorted (see :func:`_mismatch_column`).  The k = 0 record of family a at
    odd i (s = -1), the extra element -G_i, carries k = None.
    """
    ks = range(k_lo, k_hi + 1)
    eps, js, column = _mismatch_column(unit, table, i, ks, None)
    if not ks:
        raise ValueError(f"index range {k_lo}..{k_hi} is empty")
    return list(map(MismatchRecord, js, column, repeat(eps)))


def index_range(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> range:
    """The indices k whose closed-form positions lie in [j_lo, j_hi]; empty
    when the window holds none (or j_lo > j_hi).  With the bracket (c, j(c))
    of :func:`_position` at each end, the first is c, or c + 1 when j(c) <
    j_lo, and the last is c, or c - 1 when j(c) > j_hi."""
    bracket = _position(unit, table, i)[2]
    lo, j = bracket(j_lo)
    hi, k = bracket(j_hi)
    return range(lo + (j < j_lo), hi + (k <= j_hi))


def mismatches_between(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> list[MismatchRecord]:
    """The closed-form exceptional positions inside [j_lo, j_hi], sorted;
    empty when the window holds none (or j_lo > j_hi)."""
    ks = index_range(unit, table, i, j_lo, j_hi)
    return mismatch_set(unit, table, i, ks.start, ks.stop - 1) if ks else []


def recover_k(unit: QuadraticUnit, table: GFib, i: int, j: int) -> Optional[int]:
    """Invert the enumeration: the index k whose closed-form position is j,
    which is c of the bracket (c, j(c)) of :func:`_position` exactly when j(c) = j.

    Returns ``None`` for the extra element -G_i (family a, odd i) and
    raises :class:`NotAMismatch` when j is not exceptional at level i.
    """
    s, _, bracket = _position(unit, table, i)
    k, got = bracket(j)
    if got != j:
        raise NotAMismatch(f"position {j} matches at level {i}")
    return None if k == 0 and s < 0 else k


def coverage_k(unit: QuadraticUnit, table: GFib, i: int, n: int) -> int:
    """Index bound K: every exceptional position in [-n, n] is produced
    by some |k| <= K.  The +2 margin absorbs the bounded fractional
    corrections of the enumeration."""
    return (beta_pow(unit, table, i) * (n + table.level(unit, i)[1])).ceil() + 2


def brute_force_mismatches(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> list[tuple[int, int]]:
    """Oracle scan: (j, discrepancy) for every exceptional j in
    [j_lo, j_hi], computed purely from floors with no closed forms."""
    drop, shift = table.level(unit, i)
    out = []
    fm = unit.floor_mul
    for j in range(j_lo, j_hi + 1):
        e = fm(j + shift) - fm(j) - drop
        if e:
            out.append((j, e))
    return out


def frequency_scan(unit: QuadraticUnit, table: GFib, i: int, n: int) -> ScanSummary:
    """Exact share of exceptional positions among j in [-n, n]: the length of
    :func:`index_range`, from one read of the level and four floor evaluations
    for any n.  A count outside 0..2n + 1 raises :class:`InvariantError`."""
    if n < 0:
        raise ValueError(f"window radius must be >= 0, got {n}")
    # stop - start, as len() of a range overflows past sys.maxsize
    ks = index_range(unit, table, i, -n, n)
    count, total = ks.stop - ks.start, 2 * n + 1
    if not 0 <= count <= total:
        raise InvariantError(f"count {count} of {total} positions puts the frequency outside [0, 1]")
    return ScanSummary(i, (-n, n), count, Fraction(count, total), unit.beta_approx() ** i)
