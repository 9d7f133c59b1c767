"""The three benchmark workloads and their independent oracles.

A workload turns a seed into a list of operations.  The timed loop runs
the list as one cycle, in a fresh seeded order each cycle, so every
complete cycle performs exactly the same mix of work.  Each operation is
a zero-argument callable into the package plus a check of its output
against an answer the benchmark worked out before the loop, by a route
that does not go through the code being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, Context, Decimal
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"

# The default six-unit grid of beattymatch.verify: three units per family.
GRID = (("a", 1), ("a", 2), ("a", 3), ("b", 3), ("b", 4), ("b", 5))

VERIFY_SUITES = ("range-law", "criterion-equivalence", "set-equivalence")
VERIFY_I_MAX = 12
VERIFY_WINDOW = 600

FREQ_I_MAX = 12
FREQ_N_LO = 1_000
FREQ_N_HI = 300_000
FREQ_STRATA = 64


@dataclass
class Op:
    """One operation: ``run`` calls the package, ``check`` judges its result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # j-window the caller keeps from a closed-form enumeration, if any
    j_window: Optional[tuple[int, int]] = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict = field(default_factory=dict)


# ------------------------------------------------------------ oracles


def gfib(family: str, m: int, n: int) -> int:
    """G_n of the unit's recurrence, by its own loop."""
    sign = 1 if family == "a" else -1
    a, b = 0, 1
    for _ in range(n):
        a, b = b, m * b + sign * a
    return a


class DecimalFloor:
    """floor(j*beta) from a high-precision decimal value of beta.

    A separate route from the package's integer square roots: beta is
    rounded to ``digits`` significant digits and j*beta is floored in
    decimal.  For |j| below 10**(digits // 3) the rounding error cannot
    cross an integer, because |j*beta - p| > 1/(|j|*(sqrt(D)+1)) for a
    quadratic irrational.
    """

    def __init__(self, family: str, m: int, digits: int = 60) -> None:
        self.ctx = Context(prec=digits + 10)
        root = self.ctx.sqrt(Decimal(m * m + 4 if family == "a" else m * m - 4))
        twice = self.ctx.subtract(root, m) if family == "a" else self.ctx.subtract(m, root)
        self.beta = self.ctx.divide(twice, 2)
        self.limit = 10 ** (digits // 3)

    def __call__(self, j: int) -> int:
        if abs(j) >= self.limit:
            raise ValueError(f"|j| = {abs(j)} is beyond the oracle's precision")
        product = self.ctx.multiply(Decimal(j), self.beta)
        return int(product.to_integral_value(rounding=ROUND_FLOOR, context=self.ctx))


def oracle_mismatch_count(family: str, m: int, i: int, lo: int, hi: int) -> int:
    """Positions j in [lo, hi] where floor((j+G_i)beta) != floor(j beta) + G_{i-1}."""
    fl = DecimalFloor(family, m)
    shift, drop = gfib(family, m, i), gfib(family, m, i - 1)
    return sum(1 for j in range(lo, hi + 1) if fl(j + shift) - fl(j) != drop)


# ------------------------------------------------------------ verify-grid


def verify_grid(bm, seed: int, negative: bool) -> Workload:
    """Every (suite, unit) pair of acceptance criteria 01-03 at a fixed window."""
    from beattymatch import verify

    units = verify.default_units()
    if [(u.family.value, u.m) for u in units] != list(GRID):
        raise RuntimeError("default unit grid differs from the benchmark's copy")
    span = 2 * VERIFY_WINDOW + 1
    ops = []
    for suite in VERIFY_SUITES:
        for u, (fam, m) in zip(units, GRID):
            if suite == "set-equivalence":
                expected = sum(
                    oracle_mismatch_count(fam, m, i, -VERIFY_WINDOW, VERIFY_WINDOW) + 1
                    for i in range(1, VERIFY_I_MAX + 1)
                )
            else:
                expected = VERIFY_I_MAX * span
            if negative and not ops:
                expected += 1

            def run(suite=suite, u=u):
                return verify.run_suites([suite], units=[u], i_max=VERIFY_I_MAX, window=VERIFY_WINDOW)

            def check(results, suite=suite, expected=expected):
                (r,) = results
                return r.name == suite and r.failures == 0 and r.checked == expected

            window = (-VERIFY_WINDOW, VERIFY_WINDOW) if suite == "set-equivalence" else None
            ops.append(Op(f"{suite}/{fam}{m}", run, check, window))
    sizes = {"suites": list(VERIFY_SUITES), "units": len(units), "i_max": VERIFY_I_MAX,
             "window": VERIFY_WINDOW, "ops_per_cycle": len(ops)}
    return Workload("verify-grid", ops, sizes)


# ------------------------------------------------------------ freq-queries


def _closed_form_count(bm, unit, table, i: int, n: int, chunk: int = 8192) -> int:
    """Closed-form mismatch_set positions inside [-n, n], enumerated in
    blocks of k so the oracle never holds a large list."""
    cap = bm.coverage_k(unit, table, i, n)
    count = 0
    for k_lo in range(-cap, cap + 1, chunk):
        block = bm.mismatch_set(unit, table, i, k_lo, min(k_lo + chunk - 1, cap))
        count += sum(1 for r in block if -n <= r.j <= n)
    return count


def freq_queries(bm, seed: int, negative: bool) -> Workload:
    """frequency_scan queries with n log-uniform over [FREQ_N_LO, FREQ_N_HI].

    n is drawn once per stratum of the log range (stratified sampling),
    so the total work of a cycle barely depends on the seed while each n
    still comes from the seed.
    """
    rng = random.Random(seed)
    units = bm.default_units()
    tables = {u: bm.GFib.build(u) for u in units}
    span = math.log(FREQ_N_HI / FREQ_N_LO)
    ops = []
    positions = 0
    for s in range(FREQ_STRATA):
        n = round(FREQ_N_LO * math.exp(span * (s + rng.random()) / FREQ_STRATA))
        positions += 2 * n + 1
        u = rng.choice(units)
        i = rng.randint(1, FREQ_I_MAX)
        t = tables[u]
        expected = _closed_form_count(bm, u, t, i, n)
        if negative and not ops:
            expected += 1

        def run(u=u, t=t, i=i, n=n):
            return bm.frequency_scan(u, t, i, n)

        def check(summary, i=i, n=n, expected=expected):
            return (summary.i == i and summary.window == (-n, n)
                    and summary.mismatch_count == expected)

        ops.append(Op(f"{u.family.value}{u.m}/i={i}/n={n}", run, check))
    sizes = {"n_lo": FREQ_N_LO, "n_hi": FREQ_N_HI, "i_max": FREQ_I_MAX,
             "ops_per_cycle": len(ops),
             "positions_per_cycle": positions}
    return Workload("freq-queries", ops, sizes)


# ------------------------------------------------------------ cli-emit

# (name, command, family, m, i, centre, half-width, extra flags, format).
# A centre of ("G", n, sign, delta) stands for sign*G_n + delta of the
# unit's own recurrence: a convergent denominator, where j*beta lies
# closest to an integer and j runs past 128 bits.
CLI_CASES = (
    ("seq-a1-wide", "seq", "a", 1, None, 0, 20_000, (), "json"),
    ("seq-b4", "seq", "b", 4, None, 3_000, 3_000, (), "csv"),
    ("mismatch-a2", "mismatch", "a", 2, 3, 0, 60_000, (), "csv"),
    ("mismatch-b3", "mismatch", "b", 3, 2, 0, 30_000, (), "json"),
    ("cut-a1-wide", "cut", "a", 1, None, 0, 10_000, ("--lo", "0", "--hi", "1"), "json"),
    ("cut-b5", "cut", "b", 5, None, 0, 3_000, ("--lo=-1*beta", "--hi", "2"), "csv"),
    ("plot-a3", "plot", "a", 3, 2, 400, 400, (), "svg"),
    ("plot-b4", "plot", "b", 4, 1, 0, 40, (), "ascii"),
    ("seq-a1-G200", "seq", "a", 1, None, ("G", 200, 1, 3), 4_000, (), "csv"),
    ("seq-b3-G150", "seq", "b", 3, None, ("G", 150, -1, -2), 3_000, (), "json"),
    ("mismatch-a1-G190", "mismatch", "a", 1, 4, ("G", 190, 1, 5), 60_000, (), "csv"),
    ("mismatch-b5-G80", "mismatch", "b", 5, 3, ("G", 80, -1, 1), 30_000, (), "json"),
    ("cut-a2-G120", "cut", "a", 2, None, ("G", 120, 1, -4), 6_000, ("--lo", "0", "--hi", "1"), "csv"),
    ("cut-b4-G100", "cut", "b", 4, None, ("G", 100, -1, 7), 3_000, ("--lo=-1*beta", "--hi", "2"), "json"),
    ("plot-a1-G200", "plot", "a", 1, 3, ("G", 200, 1, -1), 400, (), "svg"),
    ("plot-b3-G100", "plot", "b", 3, 2, ("G", 100, -1, 2), 40, (), "ascii"),
)


def cli_argv(case) -> list[str]:
    """argv of one case, without --out."""
    _, command, family, m, i, centre, half, extra, fmt = case
    if isinstance(centre, tuple):
        _, n, sign, delta = centre
        centre = sign * gfib(family, m, n) + delta
    argv = [command, "--family", family, "--m", str(m)]
    if i is not None:
        argv += ["--i", str(i)]
    argv += list(extra)
    argv += ["--from", str(centre - half), "--to", str(centre + half), "--format", fmt]
    return argv


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def cli_emit(bm, seed: int, negative: bool, tmp_dir: str) -> Workload:
    """cli.main over a fixed argv list, each output checked by SHA-256."""
    from beattymatch import cli

    digests = load_digests()
    ops = []
    for case in CLI_CASES:
        name = case[0]
        argv = cli_argv(case)
        out = os.path.join(tmp_dir, f"{name}.out")
        want = digests[name]
        if negative and not ops:
            want = ("0" if want[0] != "0" else "1") + want[1:]

        def run(argv=argv, out=out):
            return cli.main(argv + ["--out", out])

        def check(rc, out=out, want=want):
            if rc != 0:
                return False
            with open(out, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest() == want

        window = None
        if case[1] == "mismatch":
            window = (int(argv[argv.index("--from") + 1]), int(argv[argv.index("--to") + 1]))
        ops.append(Op(name, run, check, window))
    sizes = {"cases": len(ops), "ops_per_cycle": len(ops),
             "big_j_bits_min": min(abs(gfib(c[2], c[3], c[5][1])).bit_length()
                                   for c in CLI_CASES if isinstance(c[5], tuple))}
    return Workload("cli-emit", ops, sizes)


WORKLOADS = ("verify-grid", "freq-queries", "cli-emit")


def build(name: str, bm, seed: int, negative: bool, tmp_dir: str) -> Workload:
    if name == "verify-grid":
        return verify_grid(bm, seed, negative)
    if name == "freq-queries":
        return freq_queries(bm, seed, negative)
    if name == "cli-emit":
        return cli_emit(bm, seed, negative, tmp_dir)
    raise ValueError(f"unknown workload {name!r}")
