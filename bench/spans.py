"""Spans around the package's public functions, installed at run time.

Each traced function is replaced, in every ``beattymatch`` module that
binds it, by a wrapper that records a span: name, start, end and the
index of the enclosing span.  The benchmark opens one root span per
operation, so all spans of an operation share that root.  Spans are
kept in flat arrays in memory and folded into per-layer sums when their
operation ends; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

ROOT = "op"

# metric prefix -> (module, attribute path); the attribute path may name
# a method or classmethod of a class in that module
TARGETS = {
    "units.floor_mul": ("units", "QuadraticUnit.floor_mul"),
    "units.pair_sign": ("units", "QuadraticUnit.pair_sign"),
    "units.beta_pow": ("units", "beta_pow"),
    "gfib.build": ("gfib", "GFib.build"),
    "beatty.discrepancy": ("beatty", "discrepancy"),
    "beatty.is_mismatch": ("beatty", "is_mismatch"),
    "beatty.frequency_scan": ("beatty", "frequency_scan"),
    "beatty.mismatch_set": ("beatty", "mismatch_set"),
    "beatty.brute_force_mismatches": ("beatty", "brute_force_mismatches"),
    "cutproject.cut_points": ("cutproject", "cut_points"),
    "verify.run_suites": ("verify", "run_suites"),
    "cli.main": ("cli", "main"),
}


class Tracer:
    """Span store plus the per-layer tallies the spans alone do not hold."""

    def __init__(self) -> None:
        self.names = [ROOT, *TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("B")
        self.parent = array("q")
        self.stack = [-1]
        self.j_window: Optional[tuple[int, int]] = None
        # calls, busy and self time per label, plus counts taken from
        # arguments and results; bits histograms floor_mul argument sizes
        self.sums: Counter = Counter()
        self.bits: Counter = Counter()
        self._saved: list = []

    # ---------------------------------------------------------- spans

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def op(self, run: Callable[[], object], j_window: Optional[tuple[int, int]]) -> tuple[object, float]:
        """Run one operation under a root span; return its result and duration.

        The operation's spans are folded into the sums afterwards, so the
        store never holds more than one operation's spans.
        """
        self.j_window = j_window
        idx = self.open(0)
        try:
            result = run()
        finally:
            self.close(idx)
            elapsed = self.end[idx] - self.start[idx]
            self.reduce()
        return result, elapsed

    def reduce(self) -> None:
        """Fold the stored spans into calls, busy and self time; clear them."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        sums, names = self.sums, self.names
        for k in range(n):
            label = names[self.name[k]]
            sums[label + ".calls"] += 1
            sums[label + ".busy"] += dur[k]
            sums[label + ".self"] += dur[k] - child[k]
        for buf in (self.start, self.end, self.name, self.parent):
            del buf[:]

    def take(self) -> tuple[Counter, Counter]:
        """Return the sums and the bits histogram gathered so far, and reset them."""
        self.reduce()
        sums, bits = Counter(self.sums), Counter(self.bits)
        self.sums.clear()
        self.bits.clear()
        return sums, bits

    # ---------------------------------------------------------- wrappers

    def _notes(self) -> dict:
        """Per-function hooks that count work from arguments and results."""
        tally, bits = self.sums, self.bits

        def floor_mul(args, result):
            bits[abs(args[1]).bit_length()] += 1

        def mismatch_set(args, result):
            tally["beatty.mismatch_set.k"] += args["k_hi"] - args["k_lo"] + 1
            tally["beatty.mismatch_set.records"] += len(result)
            if self.j_window is not None:
                lo, hi = self.j_window
                tally["beatty.mismatch_set.kept"] += sum(1 for r in result if lo <= r.j <= hi)
            else:
                tally["beatty.mismatch_set.kept"] += len(result)

        def brute(args, result):
            tally["beatty.brute_force_mismatches.j"] += max(0, args["j_hi"] - args["j_lo"] + 1)

        def freq(args, result):
            tally["beatty.frequency_scan.positions"] += 2 * args["n"] + 1

        def cut(args, result):
            tally["cutproject.cut_points.b"] += max(0, args["b_hi"] - args["b_lo"] + 1)
            tally["cutproject.points"] += len(result)

        def run_suites(args, result):
            tally["verify.checked"] += sum(r.checked for r in result)

        def cli_main(args, result):
            argv = list(args["argv"])
            if "--out" not in argv or result != 0:
                return
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                data = fh.read()
            tally["cli.bytes_written"] += len(data)
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else ""
            if fmt == "csv":
                rows = data.count(b"\n") - 1
            elif fmt == "json":
                rows = data.count(b"\n    {")  # one indented object per row
            else:
                lo, hi = (int(argv[argv.index(flag) + 1]) for flag in ("--from", "--to"))
                rows = max(0, hi - lo + 1)
            tally["cli.rows"] += rows

        return {
            "units.floor_mul": (floor_mul, False),
            "beatty.mismatch_set": (mismatch_set, True),
            "beatty.brute_force_mismatches": (brute, True),
            "beatty.frequency_scan": (freq, True),
            "cutproject.cut_points": (cut, True),
            "verify.run_suites": (run_suites, True),
            "cli.main": (cli_main, True),
        }

    def _wrap(self, fn: Callable, nid: int, note) -> Callable:
        open_, close = self.open, self.close
        hook, bind = note if note else (None, False)
        sig = inspect.signature(fn) if bind else None

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)
                else:
                    hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Replace every binding of each target inside the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, _ in TARGETS.values():
            importlib.import_module(f"beattymatch.{modname}")
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "beattymatch" or key.startswith("beattymatch."))]
        notes = self._notes()
        for nid, (label, (modname, path)) in enumerate(TARGETS.items(), start=1):
            owner = sys.modules[f"beattymatch.{modname}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            note = notes.get(label)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, nid, note))
                self._rebind(owner, attr, raw, wrapped)
            elif isinstance(owner, type):
                self._rebind(owner, attr, raw, self._wrap(raw, nid, note))
            else:
                wrapped = self._wrap(raw, nid, note)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._rebind(mod, key, raw, wrapped)

    def _rebind(self, owner, attr: str, raw, wrapped) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


# ---------------------------------------------------------- metrics


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _median_of_histogram(hist: Counter) -> float:
    total = sum(hist.values())
    if not total:
        return 0.0
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if 2 * seen >= total:
            break
    return float(value)


def per_layer(setup: Counter, cycles: Counter, bits: Counter, n_cycles: int,
              overhead: float, scale: float) -> dict:
    """Per-layer numbers for one pass: the set-up plus one cycle of operations.

    Set-up sums enter once; sums over the traced cycles are divided by
    their number.  Times come from traced calls, so they include the
    tracer's own cost for the spans nested inside them, and are multiplied
    by ``scale`` to reference speed (see speed.py).
    """
    s = Counter(setup)
    for key, value in cycles.items():
        s[key] += value / n_cycles
    for key in s:
        if key.endswith((".busy", ".self")):
            s[key] *= scale

    def per_call(label: str, scale: float) -> float:
        return _ratio(s[label + ".busy"], s[label + ".calls"], scale)

    return {
        "units.floor_mul.calls": s["units.floor_mul.calls"],
        "units.floor_mul.us_per_call": per_call("units.floor_mul", 1e6),
        "units.floor_mul.bits_p50": _median_of_histogram(bits),
        "units.pair_sign.calls": s["units.pair_sign.calls"],
        "units.pair_sign.us_per_call": per_call("units.pair_sign", 1e6),
        "units.beta_pow.calls": s["units.beta_pow.calls"],
        "gfib.build.calls": s["gfib.build.calls"],
        "gfib.build.busy_s": s["gfib.build.busy"],
        "beatty.discrepancy.calls": s["beatty.discrepancy.calls"],
        "beatty.discrepancy.us_per_call": per_call("beatty.discrepancy", 1e6),
        "beatty.is_mismatch.calls": s["beatty.is_mismatch.calls"],
        "beatty.is_mismatch.us_per_call": per_call("beatty.is_mismatch", 1e6),
        "beatty.frequency_scan.calls": s["beatty.frequency_scan.calls"],
        "beatty.frequency_scan.ns_per_position": _ratio(
            s["beatty.frequency_scan.busy"], s["beatty.frequency_scan.positions"], 1e9),
        "beatty.mismatch_set.calls": s["beatty.mismatch_set.calls"],
        "beatty.mismatch_set.us_per_k": _ratio(
            s["beatty.mismatch_set.busy"], s["beatty.mismatch_set.k"], 1e6),
        "beatty.mismatch_set.kept_ratio": _ratio(
            s["beatty.mismatch_set.kept"], s["beatty.mismatch_set.records"]),
        "beatty.brute_force_mismatches.us_per_j": _ratio(
            s["beatty.brute_force_mismatches.busy"], s["beatty.brute_force_mismatches.j"], 1e6),
        "cutproject.cut_points.calls": s["cutproject.cut_points.calls"],
        "cutproject.cut_points.us_per_b": _ratio(
            s["cutproject.cut_points.busy"], s["cutproject.cut_points.b"], 1e6),
        "cutproject.points": s["cutproject.points"],
        "verify.run_suites.calls": s["verify.run_suites.calls"],
        "verify.checked": s["verify.checked"],
        "verify.self_s": s["verify.run_suites.self"],
        "cli.main.calls": s["cli.main.calls"],
        "cli.self_s": s["cli.main.self"],
        "cli.bytes_written": s["cli.bytes_written"],
        "cli.rows": s["cli.rows"],
        "trace.overhead_ratio": overhead,
    }
