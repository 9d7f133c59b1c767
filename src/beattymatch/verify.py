"""Cross-checking suites behind the ``verify`` command.

Every closed-form claim of the package is paired with an independent
route: discrepancy scans against value-range and membership criteria,
predicted position sets against windowed floors, window counts against
their bounded remainder and a telescoped sum of floors, power
coordinates against folded ring products, the cut-and-project identities
against direct enumeration, and the mismatch sets against the points of
a window of length beta**i.  A perturbation hook shows that the checks
can actually fail.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import beatty, cutproject
from .gfib import MAX_TABLE_BITS, GFib
from .units import Family, QuadraticUnit, ZBeta, beta_pow, make_unit

SUITES = (
    "range-law",
    "criterion-equivalence",
    "set-equivalence",
    "frequency",
    "power-identities",
    "unit-interval",
    "sigma-identities",
    "level-bridge",
)

DEFAULT_I_MAX = 12
DEFAULT_WINDOW = 10_000
DEFAULT_FREQ_N = 100_000
DEFAULT_B_SPAN = 200
# the window suites hold one shared window of up to 4*window + 1 floors per unit and, beside it,
# about six lists of 2*window + 1 (base floors, lows, order, a shifted slice, two levels' differences);
# the cut suites hold 2*b_span + 1 points per window
MAX_WINDOW = 1 << 17
MAX_B_SPAN = 1 << 14
# power-identities checks beta**i for i = 1..POWER_I_MAX, on its own table G_0..G_POWER_I_MAX
POWER_I_MAX = 60


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failures: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def default_units() -> list[QuadraticUnit]:
    """The standard verification grid: three units of each family."""
    grid = [make_unit(Family.PLUS, m) for m in (1, 2, 3)]
    grid += [make_unit(Family.MINUS, m) for m in (3, 4, 5)]
    return grid


def _level_windows(
    units: Sequence[QuadraticUnit], tables: dict, i_max: int, window: int
) -> Iterator[tuple[QuadraticUnit, GFib, int, beatty.FloorWindow, int, list[int]]]:
    """(unit, table, i, base, G_{i-1}, d) for every unit and level: base is the
    floor window over [-window, window] and d the differences
    floor((j + G_i)*beta) - floor(j*beta) there.  Each unit builds one floor
    window over [-window, window + R], R the largest G_i <= 2*window; base and
    the shifted floors of every level with G_i <= R are slices of it, and a
    level with G_i > R builds its own floor window at G_i - window."""
    n = 2 * window + 1
    for u in units:
        t = tables[u]
        levels = [(i, *t.level(u, i)) for i in range(1, i_max + 1)]
        whole = beatty.floor_window(u, -window, n + max((g for *_, g in levels if g < n), default=0))
        # the first n points keep their brackets, at the precision of the whole window
        base = beatty.FloorWindow(whole.j0, whole.bits, whole.floors[:n], whole.sums[:n])
        for i, drop, shift in levels:
            if shift + n <= len(whole.floors):
                shifted = whole.floors[shift : shift + n]
            else:
                shifted = beatty.floor_window(u, shift - window, n).floors
            yield u, t, i, base, drop, list(map(operator.sub, shifted, whole.floors))


def _departures(d: list[int], drop: int, offsets: Iterable[int]) -> tuple[int, int]:
    """(|N|, |N & offsets|) for N the offsets where d differs from drop; the
    offsets must be distinct, and those outside d are not in N.  One count
    of d plus a read of d at each offset."""
    n = len(d)
    return n - d.count(drop), sum(1 for o in offsets if 0 <= o < n and d[o] != drop)


def _suite_range_law(units: Sequence[QuadraticUnit], tables: dict, i_max: int, window: int) -> SuiteResult:
    checked = failures = 0
    for u, _, i, _, drop, d in _level_windows(units, tables, i_max, window):
        checked += len(d)
        failures += len(d) - d.count(drop) - d.count(drop + beatty.mismatch_epsilon(u, i))
    return SuiteResult("range-law", checked, failures)


def _suite_criterion_equivalence(
    units: Sequence[QuadraticUnit], tables: dict, i_max: int, window: int, fault_j: Optional[int]
) -> SuiteResult:
    checked = failures = 0
    for u, t, i, base, drop, d in _level_windows(units, tables, i_max, window):
        if fault_j is not None:
            # perturbation hook: corrupt the discrepancy at one position so
            # this suite has something to catch
            d[fault_j + window] += 1
        member = beatty.mismatch_window(u, t, i, base)
        departed, hit = _departures(d, drop, member)
        # one failure per offset in just one of the two sets
        checked, failures = checked + len(d), failures + departed + len(member) - 2 * hit
    return SuiteResult("criterion-equivalence", checked, failures)


def _tally(got: list, want: list) -> tuple[int, int]:
    """(checked, failures) of one level's position lists: the union of their
    positions plus one, and one failure per position in just one of them
    plus one for the level when they differ."""
    if got == want:
        return len(want) + 1, 0
    a, b = set(got), set(want)
    return len(a | b) + 1, len(a ^ b) + 1


def _suite_set_equivalence(units: Sequence[QuadraticUnit], tables: dict, i_max: int, window: int) -> SuiteResult:
    checked = failures = 0
    for u, t, i, _, drop, d in _level_windows(units, tables, i_max, window):
        predicted = [(r.j, r.epsilon) for r in beatty.mismatches_between(u, t, i, -window, window)]
        js = {j for j, _ in predicted}
        departed, hit = _departures(d, drop, [j + window for j in js])
        # _tally's counts: the union of the positions and their symmetric difference;
        # when they agree the scanned list is (j, d - drop) at the predicted positions alone
        union = len(js) + departed - hit
        same = union == hit and predicted == [(j, d[j + window] - drop) for j in sorted(js)]
        checked, failures = checked + union + 1, failures + union - hit + (0 if same else 1)
    return SuiteResult("set-equivalence", checked, failures)


def _suite_frequency(units: Sequence[QuadraticUnit], tables: dict, i_max: int, n: int) -> SuiteResult:
    """Each count over [-n, n] by two routes.  Bounded remainder (Kesten 1966):
    it misses beta**i * (2n + 1) by less than 2, decided by exact sign tests.
    Exact, at every level with G_i <= MAX_WINDOW: the discrepancies over
    [-n, n] telescope, so eps_i*count = sum(floor(j*beta), n < j <= n + G_i)
    - sum(floor(j*beta), -n <= j < -n + G_i) - (2n + 1)*G_{i-1}, two floor
    windows of length G_i for any n.  The note names the levels from which
    each unit's G_i is too long for the exact route."""
    checked = failures = worst = 0
    skipped = []
    for u in units:
        t, first_long = tables[u], None
        for i in range(1, i_max + 1):
            count = beatty.frequency_scan(u, t, i, n).mismatch_count
            gap = u.element(count, 0) - beta_pow(u, t, i) * (2 * n + 1)
            checked += 1
            if not -2 < gap < 2:
                failures += 1
            # the note shows the largest |gap|, floored to 3 decimals
            worst = max(worst, ((gap if gap >= 0 else -gap) * 1000).floor())
            drop, shift = t.level(u, i)
            if shift > MAX_WINDOW:
                first_long = first_long or i
                continue
            ahead, behind = beatty.floor_window(u, n + 1, shift), beatty.floor_window(u, -n, shift)
            checked += 1
            if sum(ahead.floors) - sum(behind.floors) - (2 * n + 1) * drop != beatty.mismatch_epsilon(u, i) * count:
                failures += 1
        if first_long:
            # G_i never decreases with i, so every later level is too long as well
            skipped.append(f"{u.family.value}{u.m}:i{first_long}-{i_max}")
    note = f"max-remainder={worst // 1000}.{worst % 1000:03d} exact-skipped={','.join(skipped) or 'none'}"
    return SuiteResult("frequency", checked, failures, note=note)


def _suite_power_identities(units: Sequence[QuadraticUnit]) -> SuiteResult:
    """beta**i read off the table equals the i-fold product of beta and
    the square-and-multiply power, for every i <= POWER_I_MAX."""
    checked = failures = 0
    for u in units:
        t = GFib.build(u, POWER_I_MAX)
        beta = ZBeta(0, 1, u)
        folded = beta
        for i in range(1, POWER_I_MAX + 1):
            closed = beta_pow(u, t, i)
            checked += 1
            if not (closed == folded and closed == beta**i):
                failures += 1
            folded = folded * beta
    return SuiteResult("power-identities", checked, failures)


def _suite_unit_interval(units: Sequence[QuadraticUnit], b_span: int) -> SuiteResult:
    """The window [0, 1) selects exactly (-floor(b*beta), b) for every b."""
    checked = failures = 0
    for u in units:
        w01 = cutproject.Window(u.element(0, 0), u.element(1, 0))
        want = cutproject.unit_interval_points(u, -b_span, b_span)
        checked += len(want)
        if cutproject.cut_points(u, w01, -b_span, b_span) != want:
            failures += 1
    return SuiteResult("unit-interval", checked, failures)


def _conjugate_preimage(unit: QuadraticUnit, p: cutproject.LatticePoint) -> cutproject.LatticePoint:
    # inverse of scale_by_conjugate on coordinates
    return cutproject.LatticePoint(p.b + unit.m * p.a, unit.sign * p.a)


def _sample_windows(unit: QuadraticUnit) -> list[cutproject.Window]:
    zero = unit.element(0, 0)
    one = unit.element(1, 0)
    beta = unit.element(0, 1)
    return [
        cutproject.Window(zero, one),
        cutproject.Window(-one, zero),
        cutproject.Window(zero, beta),
        cutproject.Window(beta, one),
        cutproject.Window(beta - 1, beta),
        cutproject.Window(zero, beta * beta),
    ]


def _suite_sigma_identities(units: Sequence[QuadraticUnit], b_span: int) -> SuiteResult:
    checked = failures = 0
    for u in units:
        for w in _sample_windows(u):
            src = cutproject.cut_points(u, w, -b_span, b_span)

            # integer translation of the window moves every point with it
            for shift in (-4, -1, 3, 7):
                checked += len(src) + 1
                if cutproject.cut_points(u, w.shifted(shift), -b_span, b_span) != cutproject.translate(src, shift):
                    failures += 1

            # conjugate scaling carries the points of w into the
            # beta-scaled window, and every point there comes from one of w
            scaled = w.scaled_by_beta()
            for p in cutproject.scale_by_conjugate(u, src):
                checked += 1
                if not scaled.contains(u.element(p.a, p.b)):
                    failures += 1
            for p in cutproject.cut_points(u, scaled, -b_span, b_span):
                q = _conjugate_preimage(u, p)
                checked += 1
                if cutproject.scale_by_conjugate(u, [q]) != [p] or not w.contains(u.element(q.a, q.b)):
                    failures += 1
    return SuiteResult("sigma-identities", checked, failures)


def _suite_level_bridge(units: Sequence[QuadraticUnit], tables: dict, i_max: int, b_span: int) -> SuiteResult:
    """The window [lo, lo + beta**i), with lo = 0 (eps_i = -1) or
    lo = 1 - beta**i (eps_i = +1), selects exactly the b that are
    level-i mismatch positions."""
    checked = failures = 0
    for u in units:
        tab = tables[u]
        for i in range(1, i_max + 1):
            p = beta_pow(u, tab, i)
            lo = 1 - p if beatty.mismatch_epsilon(u, i) > 0 else u.element(0, 0)
            got = [q.b for q in cutproject.cut_points(u, cutproject.Window(lo, lo + p), -b_span, b_span)]
            want = [r.j for r in beatty.mismatches_between(u, tab, i, -b_span, b_span)]
            c, f = _tally(got, want)
            checked, failures = checked + c, failures + f
    return SuiteResult("level-bridge", checked, failures)


def run_suites(
    names: Optional[Iterable[str]] = None,
    units: Optional[Sequence[QuadraticUnit]] = None,
    i_max: int = DEFAULT_I_MAX,
    window: int = DEFAULT_WINDOW,
    freq_n: int = DEFAULT_FREQ_N,
    b_span: int = DEFAULT_B_SPAN,
    fault_j: Optional[int] = None,
) -> list[SuiteResult]:
    """Run the named suites (all of them by default) over the unit grid.

    ``fault_j``, in [-window, window], adds 1 to the discrepancy at that position
    inside the criterion-equivalence suite, which must be chosen, as a negative control.
    Bad arguments raise ValueError before any suite runs; a suite that raises
    reports one failure, with the exception in its note, and the others still run.
    """
    chosen = list(names) if names is not None else list(SUITES)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    if not 0 <= window <= MAX_WINDOW:
        raise ValueError(f"window radius must be in 0..{MAX_WINDOW}, got {window}")
    if not 0 <= b_span <= MAX_B_SPAN:
        raise ValueError(f"b span must be in 0..{MAX_B_SPAN}, got {b_span}")
    if freq_n < 0:
        raise ValueError(f"frequency radius n must be >= 0, got {freq_n}")
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    if fault_j is not None and not (-window <= fault_j <= window and "criterion-equivalence" in chosen):
        raise ValueError(f"fault position {fault_j} injects nothing unless criterion-equivalence runs over [-{window}, {window}]")
    grid = list(units) if units is not None else default_units()
    if sum(GFib.size_bound(u, i_max) for u in grid) > MAX_TABLE_BITS:
        raise ValueError(f"the tables of {len(grid)} units up to level {i_max} exceed the cap of {MAX_TABLE_BITS} bits")
    # G_0..G_{i_max}: the levels that the level suites read
    tables = {u: GFib.build(u, i_max) for u in grid}

    runners = {
        "range-law": lambda: _suite_range_law(grid, tables, i_max, window),
        "criterion-equivalence": lambda: _suite_criterion_equivalence(grid, tables, i_max, window, fault_j),
        "set-equivalence": lambda: _suite_set_equivalence(grid, tables, i_max, window),
        "frequency": lambda: _suite_frequency(grid, tables, i_max, freq_n),
        "power-identities": lambda: _suite_power_identities(grid),
        "unit-interval": lambda: _suite_unit_interval(grid, b_span),
        "sigma-identities": lambda: _suite_sigma_identities(grid, b_span),
        "level-bridge": lambda: _suite_level_bridge(grid, tables, i_max, b_span),
    }
    results = []
    for name in chosen:
        # the arguments are checked, so an exception is the suite's failure, not a refusal
        try:
            results.append(runners[name]())
        except Exception as exc:
            results.append(SuiteResult(name, 0, 1, note=f"{type(exc).__name__}: {exc}"))
    return results


def render_report(results: Sequence[SuiteResult]) -> str:
    """Fixed-width textual report, one line per suite."""
    lines = [f"{'suite':<24} {'checked':>10} {'failures':>9}  status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        tail = f"  {r.note}" if r.note else ""
        lines.append(f"{r.name:<24} {r.checked:>10} {r.failures:>9}  {status}{tail}")
    overall = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"
