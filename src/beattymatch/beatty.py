"""Self-matching analysis of the sequence floor(j*beta).

Shifting the argument of j |-> floor(j*beta) by a table entry G_i
shifts the value by G_{i-1} at almost every j.  The exceptional
positions admit an exact closed-form enumeration, their membership is
a single fractional-part test, and their density over growing windows
is beta**i.  Whole windows of floors come from one fixed-point sum whose
error bracket is certified, with an exact fallback where it is too wide.
Everything here is integer-exact; the only float is the display target
carried by a scan summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .gfib import GFib
from .units import Family, InvariantError, QuadraticUnit, UnitMismatch, beta_pow


class NotAMismatch(ValueError):
    """Inverse lookup requested for a position that matches."""


@dataclass(frozen=True)
class MismatchRecord:
    """One exceptional position.

    ``k`` is the enumeration index that produced ``j``; ``None`` marks
    the single extra element (-G_i at odd i, family a) that the plain
    k-formula does not generate.
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


def _require(table: GFib, unit: QuadraticUnit, i: int, need_next: bool = False) -> None:
    if table.unit != unit:
        raise UnitMismatch("table belongs to a different unit")
    if i < 1:
        raise ValueError(f"shift index must be >= 1, got {i}")
    top = i + 1 if need_next else i
    if top >= len(table):
        raise IndexError(f"table of length {len(table)} has no entry {top}")


def mismatch_epsilon(unit: QuadraticUnit, i: int) -> int:
    """The single nonzero value the discrepancy can take at level i."""
    if unit.family is Family.MINUS or i % 2:
        return 1
    return -1


def discrepancy(unit: QuadraticUnit, table: GFib, i: int, j: int) -> int:
    """floor(beta*(j + G_i)) - floor(beta*j) - G_{i-1}.

    Zero exactly at the self-matching positions; otherwise equal to
    ``mismatch_epsilon(unit, i)``.
    """
    _require(table, unit, i)
    return unit.floor_mul(j + table[i]) - unit.floor_mul(j) - table[i - 1]


def is_mismatch(unit: QuadraticUnit, table: GFib, i: int, j: int) -> bool:
    """Exact membership test, decided on the fractional part of j*beta
    without evaluating the discrepancy.

    Family a, even i: mismatch iff frac(j*beta) < beta**i.
    Family a odd i, and family b: mismatch iff frac(j*beta) >= 1 - beta**i.
    """
    _require(table, unit, i)
    f = unit.floor_mul(j)
    p = beta_pow(unit, table, i)
    if unit.family is Family.PLUS and i % 2 == 0:
        return unit.pair_sign(-f - p.a, j - p.b) < 0
    return unit.pair_sign(-f - 1 + p.a, j + p.b) >= 0


@dataclass(frozen=True)
class FloorWindow:
    """Exact floors of j*beta for j in [j0, j0 + len(floors)), each with a
    certified low end of its fractional part at the scale 2**bits:
    frac((j0 + t)*beta) * 2**bits lies in [lows[t], lows[t] + t + 1).
    The lists are shared, not copied; treat them as read-only.
    """

    j0: int
    bits: int
    floors: list[int]
    lows: list[int]


def floor_window(unit: QuadraticUnit, j0: int, count: int) -> FloorWindow:
    """floor(j*beta) for the count integers j0 <= j < j0 + count, from two
    square roots plus one per carry, in place of one per j.

    Proof.  Let K = bits = 40 + count.bit_length(), A = floor(j0*beta*2**K)
    and P = floor(beta*2**K), both exact floors.  Then j0*beta*2**K lies in
    [A, A + 1) and t*beta*2**K in [t*P, t*P + t] for t >= 0, so with
    S_t = A + t*P, x_t = (j0 + t)*beta*2**K lies in [S_t, S_t + t + 1).
    Write S_t = q*2**K + r with 0 <= r < 2**K.  If r + t + 1 <= 2**K the
    whole bracket sits in [q*2**K, (q + 1)*2**K), so floor((j0 + t)*beta)
    = q and frac((j0 + t)*beta)*2**K = x_t - q*2**K lies in [r, r + t + 1).
    Otherwise (the carry case: x_t may have crossed (q + 1)*2**K) the floor
    f comes from floor_mul, and x_t - f*2**K, which lies in [0, 2**K) and
    in [S_t - f*2**K, S_t - f*2**K + t + 1), has low end
    max(0, S_t - f*2**K) and still lies below that plus t + 1.  Since
    t < count <= 2**(K - 40), the carry case needs frac(j*beta) within
    2**-40 of 1: the convergent denominators j = +-G_n, or the exact zero
    at j = 0 reached from a negative anchor.
    """
    if count < 0:
        raise ValueError(f"window length must be >= 0, got {count}")
    bits = 40 + count.bit_length()
    mask = (1 << bits) - 1
    fm = unit.floor_mul
    step = fm(1 << bits)
    start = fm(j0 << bits)
    sums = range(start, start + count * step, step)
    floors = [s >> bits for s in sums]
    lows = [s & mask for s in sums]
    for t in [t for t, r in enumerate(lows) if r + t > mask]:
        s = sums[t]
        f = fm(j0 + t)
        if f - floors[t] not in (0, 1):
            raise InvariantError(f"{unit}: floor of {j0 + t}*beta is {f}, outside the bracket of {floors[t]}")
        floors[t] = f
        lows[t] = max(0, s - (f << bits))
    return FloorWindow(j0, bits, floors, lows)


def discrepancy_window(unit: QuadraticUnit, table: GFib, i: int, base: FloorWindow) -> list[int]:
    """:func:`discrepancy` at every j of ``base``: the floors of the window
    shifted by G_i minus those of ``base``, minus G_{i-1}."""
    _require(table, unit, i)
    shifted = floor_window(unit, base.j0 + table[i], len(base.floors)).floors
    drop = table[i - 1]
    return [s - b - drop for s, b in zip(shifted, base.floors)]


def mismatch_window(unit: QuadraticUnit, table: GFib, i: int, base: FloorWindow) -> list[bool]:
    """:func:`is_mismatch` at every j of ``base``, decided on its certified
    fractional brackets against Q = floor(beta**i * 2**bits), an exact
    floor with Q < beta**i * 2**bits < Q + 1.

    Family a, even i (mismatch iff frac < beta**i): a bracket wholly below
    Q is a mismatch, one from Q + 1 up is not.  Otherwise (mismatch iff
    frac >= 1 - beta**i, which lies in (E - 1, E) at scale 2**bits for
    E = 2**bits - Q): a bracket from E up is a mismatch, one wholly below
    E - 1 is not.  A bracket that straddles the threshold goes to
    :func:`is_mismatch`; at j = -G_i frac(j*beta) equals it exactly.
    """
    _require(table, unit, i)
    q = (beta_pow(unit, table, i) * (1 << base.bits)).floor()
    j0 = base.j0

    def exact(t: int) -> bool:
        return is_mismatch(unit, table, i, j0 + t)

    if unit.family is Family.PLUS and i % 2 == 0:
        return [True if low + t < q else False if low > q else exact(t) for t, low in enumerate(base.lows)]
    edge = (1 << base.bits) - q
    return [True if low >= edge else False if low + t + 2 <= edge else exact(t) for t, low in enumerate(base.lows)]


def _position(unit: QuadraticUnit, table: GFib, i: int) -> Callable[[int, int], int]:
    """The closed form (k, floor(k*beta)) |-> j(k) of the exceptional
    positions at level i; the caller supplies the floor, one by one or
    from a :func:`floor_window`.

    Family a: j = k*G_{i+1} + floor(k*beta)*G_i for k != 0; the k = 0
    slot holds 0 at even i and the extra element -G_i at odd i.
    Family b: j = k*G_{i+1} - (floor(k*beta) + 1)*G_i for every k.
    j(k) is strictly increasing in k, the k = 0 slot included: a step
    is at least G_{i+1} (family a) or G_{i+1} - G_i > 0 (family b).
    The table is read once per level, not once per k; G_{i+1} comes
    from the recurrence, so the table need only reach G_i.
    """
    prev, cur = table[i - 1], table[i]
    if unit.family is Family.MINUS:
        succ = unit.m * cur - prev
        return lambda k, f: k * succ - (f + 1) * cur
    succ = unit.m * cur + prev
    slot0 = -cur if i % 2 else 0
    return lambda k, f: k * succ + f * cur if k else slot0


def _is_special(unit: QuadraticUnit, i: int, k: int) -> bool:
    """Whether slot k holds the extra element -G_i (family a, odd i)."""
    return k == 0 and i % 2 == 1 and unit.family is Family.PLUS


def _last_index(unit: QuadraticUnit, table: GFib, i: int, x: int) -> int:
    """The largest k with j(k) <= x, from a constant number of floors.

    G_{i+1} + G_i*beta = beta**-i (family a) and G_{i+1} - G_i*beta =
    beta**-i (family b) turn the closed forms into
    beta**i * j(k) = k - beta**i*G_i*r with r = frac(k*beta) (family a,
    k != 0), r = 1 (the odd-level extra element) or r = 1 - frac(k*beta)
    (family b).  So |beta**i * j(k) - k| <= beta**i*G_i < 1, which puts
    the answer at floor(beta**i * x) or one above it: starting there, a
    single correcting step is the most ever taken.
    """
    pos = _position(unit, table, i)
    fm = unit.floor_mul
    k = (beta_pow(unit, table, i) * x).floor()
    for _ in range(3):
        if pos(k, fm(k)) > x:
            k -= 1
        elif pos(k + 1, fm(k + 1)) <= x:
            k += 1
        else:
            return k
    raise InvariantError(f"{unit} i={i}: index bracket for j <= {x} moved more than two steps, to k={k}")


def mismatch_set(unit: QuadraticUnit, table: GFib, i: int, k_lo: int, k_hi: int) -> list[MismatchRecord]:
    """Closed-form enumeration of the exceptional positions for indices
    k_lo..k_hi, sorted by position (see :func:`_position`), with the
    floors of k*beta from one :func:`floor_window`.

    The extra element -G_i of family a at odd i fills the k = 0 slot and
    carries k = None.
    """
    _require(table, unit, i, need_next=True)
    if k_lo > k_hi:
        raise ValueError(f"index range {k_lo}..{k_hi} is empty")
    eps = mismatch_epsilon(unit, i)
    pos = _position(unit, table, i)
    ks = range(k_lo, k_hi + 1)
    floors = floor_window(unit, k_lo, len(ks)).floors
    records = [MismatchRecord(pos(k, f), k, eps) for k, f in zip(ks, floors)]
    if _is_special(unit, i, 0) and k_lo <= 0 <= k_hi:
        records[-k_lo] = MismatchRecord(pos(0, 0), None, eps)
    return records


def index_range(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> range:
    """The indices k whose closed-form positions lie in [j_lo, j_hi];
    empty when the window holds none (or j_lo > j_hi)."""
    _require(table, unit, i, need_next=True)
    return range(_last_index(unit, table, i, j_lo - 1) + 1, _last_index(unit, table, i, j_hi) + 1)


def mismatches_between(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int) -> list[MismatchRecord]:
    """The closed-form exceptional positions inside [j_lo, j_hi], sorted;
    empty when the window holds none (or j_lo > j_hi)."""
    ks = index_range(unit, table, i, j_lo, j_hi)
    return mismatch_set(unit, table, i, ks.start, ks.stop - 1) if ks else []


def recover_k(unit: QuadraticUnit, table: GFib, i: int, j: int) -> Optional[int]:
    """Invert the enumeration: the index k whose closed-form position is j.

    Returns ``None`` for the extra element -G_i (family a, odd i) and
    raises :class:`NotAMismatch` when j is not exceptional at level i.
    """
    _require(table, unit, i, need_next=True)
    if not is_mismatch(unit, table, i, j):
        raise NotAMismatch(f"position {j} matches at level {i}")
    # beta**i * j(k) lies in (k - 1, k], see _last_index
    k = (beta_pow(unit, table, i) * j).ceil()
    got = _position(unit, table, i)(k, unit.floor_mul(k))
    if got != j:
        raise InvariantError(f"{unit} i={i}: exceptional position j={j} but the closed form gives j({k})={got}")
    return None if _is_special(unit, i, k) else k


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
