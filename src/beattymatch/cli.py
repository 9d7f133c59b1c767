"""Command-line front end.

Subcommands: seq (floor table), mismatch (closed-form exceptional
positions), plot (step graph with shifted overlay, SVG or ascii), freq
(exact window frequency), cut (cut-and-project points), verify
(cross-check suites).  Identical arguments produce byte-identical
output.  Exit codes: 0 success, 1 usage error, 2 verification failure,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import Optional, Sequence

from . import verify
from .beatty import MismatchRecord, frequency_scan, mismatch_set, mismatches_between
from .cutproject import Window, cut_points
from .gfib import GFib
from .units import DomainError, QuadraticUnit, UnitMismatch, ZBeta, make_unit

SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = 48

_ENDPOINT_TERM = r"[+-]?\d+"


class UsageError(ValueError):
    pass


def parse_endpoint(text: str, unit: QuadraticUnit) -> ZBeta:
    """Parse a window endpoint of the shape "A", "B*beta" or "A+B*beta"
    (spaces and parentheses around B tolerated)."""
    s = text.replace(" ", "")
    m_full = re.fullmatch(rf"({_ENDPOINT_TERM})([+-])\(?({_ENDPOINT_TERM})\)?\*beta", s)
    if m_full:
        a = int(m_full.group(1))
        b = int(m_full.group(3))
        if m_full.group(2) == "-":
            b = -b
        return ZBeta(a, b, unit)
    m_beta = re.fullmatch(rf"\(?({_ENDPOINT_TERM})\)?\*beta", s)
    if m_beta:
        return ZBeta(0, int(m_beta.group(1)), unit)
    m_int = re.fullmatch(_ENDPOINT_TERM, s)
    if m_int:
        return ZBeta(int(s), 0, unit)
    raise UsageError(f"cannot parse window endpoint {text!r}; expected forms like '1', '-2*beta', '1+(-1)*beta'")


def _emit(text: str, out: Optional[str]) -> int:
    if out is None or out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 3
    return 0


def _csv_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_doc(config: dict, rows: object) -> str:
    return json.dumps({"config": config, "rows": rows}, indent=2, sort_keys=True) + "\n"


def _unit_from_args(args: argparse.Namespace) -> QuadraticUnit:
    return make_unit(args.family, args.m)


def _table_for(unit: QuadraticUnit, i: int) -> GFib:
    if i < 1:
        raise UsageError(f"--i must be >= 1, got {i}")
    return GFib.for_level(unit, i)


def _record_k(record: MismatchRecord) -> object:
    return "special" if record.k is None else record.k


# ---------------------------------------------------------------- commands


def cmd_seq(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    rows = [(j, unit.floor_mul(j)) for j in range(args.j_lo, args.j_hi + 1)]
    config = {
        "command": "seq",
        "family": args.family,
        "m": args.m,
        "from": args.j_lo,
        "to": args.j_hi,
        "format": args.format,
    }
    if args.format == "json":
        doc = _json_doc(config, [{"j": j, "floor": f} for j, f in rows])
    else:
        doc = _csv_table(("j", "floor"), rows)
    return _emit(doc, args.out)


def _clipped_mismatches(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int,
                        k_lo: Optional[int], k_hi: Optional[int]) -> list[MismatchRecord]:
    if k_lo is None or k_hi is None:
        return mismatches_between(unit, table, i, j_lo, j_hi)
    return [r for r in mismatch_set(unit, table, i, k_lo, k_hi) if j_lo <= r.j <= j_hi]


def cmd_mismatch(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    table = _table_for(unit, args.i)
    if (args.k_lo is None) != (args.k_hi is None):
        raise UsageError("--k-from and --k-to must be given together")
    records = _clipped_mismatches(unit, table, args.i, args.j_lo, args.j_hi, args.k_lo, args.k_hi)
    config = {
        "command": "mismatch",
        "family": args.family,
        "m": args.m,
        "i": args.i,
        "from": args.j_lo,
        "to": args.j_hi,
        "format": args.format,
    }
    if args.k_lo is not None:
        config["k_from"] = args.k_lo
        config["k_to"] = args.k_hi
    if args.format == "json":
        doc = _json_doc(config, [{"j": r.j, "k": r.k, "epsilon": r.epsilon} for r in records])
    else:
        doc = _csv_table(("j", "k", "epsilon"), [(r.j, _record_k(r), r.epsilon) for r in records])
    return _emit(doc, args.out)


def cmd_freq(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    table = _table_for(unit, args.i)
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    summary = frequency_scan(unit, table, args.i, args.n)
    total = 2 * args.n + 1
    config = {
        "command": "freq",
        "family": args.family,
        "m": args.m,
        "i": args.i,
        "n": args.n,
        "format": args.format,
    }
    exact = f"{summary.mismatch_count}/{total}"
    decimal = float(summary.frequency)
    if args.format == "json":
        row = {
            "i": summary.i,
            "n": args.n,
            "count": summary.mismatch_count,
            "total": total,
            "frequency": exact,
            "frequency_decimal": decimal,
            "target": summary.target,
        }
        doc = _json_doc(config, [row])
    else:
        doc = _csv_table(
            ("i", "n", "count", "total", "frequency", "frequency_decimal", "target"),
            [(summary.i, args.n, summary.mismatch_count, total, exact, f"{decimal:.10f}", f"{summary.target:.10f}")],
        )
    return _emit(doc, args.out)


def cmd_cut(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    lo = parse_endpoint(args.lo, unit)
    hi = parse_endpoint(args.hi, unit)
    try:
        window = Window(lo, hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    points = cut_points(unit, window, args.b_lo, args.b_hi) if args.b_lo <= args.b_hi else []
    config = {
        "command": "cut",
        "family": args.family,
        "m": args.m,
        "lo": str(lo),
        "hi": str(hi),
        "from": args.b_lo,
        "to": args.b_hi,
        "format": args.format,
    }
    if args.format == "json":
        doc = _json_doc(config, [{"a": p.a, "b": p.b} for p in points])
    else:
        doc = _csv_table(("a", "b"), [(p.a, p.b) for p in points])
    return _emit(doc, args.out)


# ---------------------------------------------------------------- plotting


def _plot_data(unit: QuadraticUnit, table: GFib, i: int, j_lo: int, j_hi: int):
    js = list(range(j_lo, j_hi + 1))
    main = [unit.floor_mul(j) for j in js]
    shift, drop = table[i], table[i - 1]
    overlay = [unit.floor_mul(j + shift) - drop for j in js]
    marks = [j for j, f, g in zip(js, main, overlay) if f != g]
    return js, main, overlay, marks


def render_svg(j_lo: int, j_hi: int, main: Sequence[int], overlay: Sequence[int],
               marks: Sequence[int], label: str) -> str:
    count = len(main)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{SVG_MARGIN}" y="24" font-family="monospace" font-size="14">{label}</text>',
    ]
    x0, y0 = SVG_MARGIN, SVG_HEIGHT - SVG_MARGIN
    x1, y1 = SVG_WIDTH - SVG_MARGIN, SVG_MARGIN
    parts.append('<g class="axes" stroke="#333333" stroke-width="1">')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/>')
    parts.append("</g>")

    if count:
        vals = list(main) + list(overlay)
        vmin, vmax = min(vals), max(vals)
        span_x = count
        span_y = max(vmax - vmin, 1)
        plot_w = x1 - x0
        plot_h = y0 - y1

        def px(j: int) -> float:
            return x0 + (j - j_lo) * plot_w / span_x

        def py(v: int) -> float:
            return y0 - (v - vmin) * plot_h / span_y

        def step_path(values: Sequence[int]) -> str:
            pieces = [f"M{px(j_lo):.2f},{py(values[0]):.2f}", f"H{px(j_lo + 1):.2f}"]
            prev = values[0]
            for off in range(1, count):
                v = values[off]
                if v != prev:
                    pieces.append(f"V{py(v):.2f}")
                    prev = v
                pieces.append(f"H{px(j_lo + off + 1):.2f}")
            return "".join(pieces)

        parts.append(
            f'<path class="main" d="{step_path(main)}" fill="none" stroke="#2563a8" stroke-width="2"/>'
        )
        parts.append(
            f'<path class="shifted" d="{step_path(overlay)}" fill="none" stroke="#c0392b" '
            f'stroke-width="2" stroke-dasharray="6 3"/>'
        )
        parts.append('<g class="mismatches">')
        for j in marks:
            cx = (px(j) + px(j + 1)) / 2
            cy = py(main[j - j_lo])
            parts.append(
                f'<circle data-j="{j}" cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
                f'fill="#e8a117" stroke="#222222" stroke-width="1"/>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ascii(j_lo: int, main: Sequence[int], overlay: Sequence[int], marks: Sequence[int]) -> str:
    if not main:
        return ""
    mark_set = set(marks)
    vmin = min(min(main), min(overlay))
    vmax = max(max(main), max(overlay))
    lines = []
    for v in range(vmax, vmin - 1, -1):
        row = []
        for idx in range(len(main)):
            ch = " "
            if overlay[idx] == v:
                ch = "+"
            if main[idx] == v:
                ch = "!" if (j_lo + idx) in mark_set else "#"
            row.append(ch)
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    table = _table_for(unit, args.i)
    if args.j_lo > args.j_hi:
        js, main, overlay, marks = [], [], [], []
    else:
        js, main, overlay, marks = _plot_data(unit, table, args.i, args.j_lo, args.j_hi)
    label = f"floor(j*beta) family={args.family} m={args.m} i={args.i} j={args.j_lo}..{args.j_hi}"
    if args.format == "ascii":
        doc = render_ascii(args.j_lo, main, overlay, marks)
    else:
        doc = render_svg(args.j_lo, args.j_hi, main, overlay, marks, label)
    return _emit(doc, args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suites(
        names=args.suites,
        i_max=args.i_max,
        window=args.window,
        freq_n=args.n,
        b_span=args.b_span,
        fault_j=args.inject_fault,
    )
    report = verify.render_report(results)
    code = _emit(report, args.out)
    if code:
        return code
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------- parser


def _add_unit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("a", "b"), default="a",
                   help="unit family: a solves x^2+mx=1, b solves x^2-mx=-1 (default a)")
    p.add_argument("--m", type=int, default=1, help="recurrence parameter (default 1)")


def _add_range_flags(p: argparse.ArgumentParser, lo: int, hi: int, what: str) -> None:
    p.add_argument("--from", dest="j_lo", type=int, default=lo, help=f"first {what} (default {lo})")
    p.add_argument("--to", dest="j_hi", type=int, default=hi, help=f"last {what} (default {hi})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beattymatch",
        description="Exact Beatty-sequence self-matching toolkit for quadratic Pisot units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="table of floor(j*beta)")
    _add_unit_flags(p_seq)
    _add_range_flags(p_seq, 0, 20, "index j")
    p_seq.add_argument("--format", choices=("csv", "json"), default="csv")
    p_seq.add_argument("--out", default=None, help="output path (default stdout)")
    p_seq.set_defaults(handler=cmd_seq)

    p_mis = sub.add_parser("mismatch", help="closed-form exceptional positions")
    _add_unit_flags(p_mis)
    p_mis.add_argument("--i", type=int, default=1, help="shift level (default 1)")
    _add_range_flags(p_mis, -20, 20, "position j")
    p_mis.add_argument("--k-from", dest="k_lo", type=int, default=None, help="explicit low index")
    p_mis.add_argument("--k-to", dest="k_hi", type=int, default=None, help="explicit high index")
    p_mis.add_argument("--format", choices=("csv", "json"), default="csv")
    p_mis.add_argument("--out", default=None)
    p_mis.set_defaults(handler=cmd_mismatch)

    p_plot = sub.add_parser("plot", help="step plot with the shifted overlay")
    _add_unit_flags(p_plot)
    p_plot.add_argument("--i", type=int, default=1, help="shift level (default 1)")
    _add_range_flags(p_plot, 0, 40, "index j")
    p_plot.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(handler=cmd_plot)

    p_freq = sub.add_parser("freq", help="exact mismatch frequency over [-n, n]")
    _add_unit_flags(p_freq)
    p_freq.add_argument("--i", type=int, default=1, help="shift level (default 1)")
    p_freq.add_argument("--n", type=int, default=100_000, help="window radius (default 100000)")
    p_freq.add_argument("--format", choices=("csv", "json"), default="csv")
    p_freq.add_argument("--out", default=None)
    p_freq.set_defaults(handler=cmd_freq)

    p_cut = sub.add_parser("cut", help="cut-and-project points for a window")
    _add_unit_flags(p_cut)
    p_cut.add_argument("--lo", default="0", help="window low endpoint, e.g. '0' or '1+(-1)*beta'")
    p_cut.add_argument("--hi", default="1", help="window high endpoint (exclusive)")
    p_cut.add_argument("--from", dest="b_lo", type=int, default=-10, help="first b coordinate (default -10)")
    p_cut.add_argument("--to", dest="b_hi", type=int, default=10, help="last b coordinate (default 10)")
    p_cut.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cut.add_argument("--out", default=None)
    p_cut.set_defaults(handler=cmd_cut)

    p_ver = sub.add_parser("verify", help="run the cross-check suites")
    p_ver.add_argument("--suite", dest="suites", action="append", choices=verify.SUITES,
                       default=None, help="run one suite (repeatable; default all)")
    p_ver.add_argument("--i-max", dest="i_max", type=int, default=verify.DEFAULT_I_MAX)
    p_ver.add_argument("--window", type=int, default=verify.DEFAULT_WINDOW)
    p_ver.add_argument("--n", type=int, default=verify.DEFAULT_FREQ_N)
    p_ver.add_argument("--b-span", dest="b_span", type=int, default=verify.DEFAULT_B_SPAN)
    p_ver.add_argument("--inject-fault", dest="inject_fault", type=int, default=None,
                       help=argparse.SUPPRESS)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (UsageError, DomainError, UnitMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
