"""Command-line front end.

Subcommands: seq (floor table), mismatch (closed-form exceptional
positions), plot (step graph with shifted overlay, SVG or ascii), freq
(exact window frequency), cut (cut-and-project points), verify
(cross-check suites).  Identical arguments produce byte-identical
output.  Exit codes: 0 success, 1 usage error, 2 verification failure,
3 output I/O error (including a reader that closed the pipe).

Every argument is checked before the first byte goes out.  The
documents are then written in blocks of at most BLOCK_ROWS rows, each
drawn from one certified floor window, so none is held in memory whole;
``--out`` goes to a temporary file that is renamed into place.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys
from bisect import bisect_left, bisect_right
from itertools import starmap
from typing import Iterable, Iterator, Optional, Sequence

from . import verify
from .beatty import floor_window, frequency_scan, index_range, mismatch_set
from .cutproject import Window, cut_points
from .gfib import GFib
from .units import DomainError, QuadraticUnit, UnitMismatch, ZBeta, make_unit

SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = 48

# rows per written block of seq, mismatch and cut
BLOCK_ROWS = 1 << 14
# plot refuses more j than this as svg, and more columns x rows than this as ascii
PLOT_MAX_POINTS = 1 << 18
PLOT_MAX_CELLS = 1 << 24

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


# ---------------------------------------------------------------- output


def _emit(chunks: Iterable[str], out: Optional[str]) -> int:
    if out is None or out == "-":
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (`beattymatch seq ... | head`): stop quietly, and
            # point stdout at the null device so the final flush at exit cannot fail
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 3
        return 0
    try:
        _write_file(chunks, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 3
    return 0


def _write_file(chunks: Iterable[str], out: str) -> None:
    """Write the chunks to a temporary file beside ``out``, then rename it
    into place: a failure partway leaves ``out`` as it was and no
    temporary file behind.  A path that exists but is not a regular file
    (a device, a pipe) is written in place."""
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    head, name = os.path.split(os.path.abspath(out))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # O_EXCL never reuses a file; mode 0o666 lets the umask decide, as open() does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(out, tmp)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_doc(keys: Sequence[str], blocks: Iterable[Iterable[tuple]]) -> Iterator[str]:
    """CSV text of the rows, one chunk per block.  Every field is an int
    or a fixed token without commas, quotes or newlines, so none needs
    quoting and plain formatting equals csv.writer's output."""
    yield ",".join(keys) + "\n"
    line = ",".join(f"{{{c}}}" for c in range(len(keys))) + "\n"
    for block in blocks:
        yield "".join(starmap(line.format, block))


def _json_doc(config: dict, keys: Sequence[str], blocks: Iterable[Iterable[tuple]]) -> Iterator[str]:
    """The text of json.dumps({"config": config, "rows": rows}, indent=2,
    sort_keys=True) + newline, one chunk per block, where each row maps
    ``keys`` to the JSON tokens of one tuple (ints, null, or already
    encoded strings and floats).  Rows come from one template for the
    sorted keys: with ``indent`` set, json.dumps runs its pure-Python
    encoder, several times slower."""
    head, _, tail = json.dumps({"config": config, "rows": []}, indent=2, sort_keys=True).rpartition("[]")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    row = "    {{\n" + ",\n".join(f'      "{keys[c]}": {{{c}}}' for c in order) + "\n    }}"
    yield head
    sep = "[\n"
    for block in blocks:
        text = ",\n".join(starmap(row.format, block))
        if text:
            yield sep + text
            sep = ",\n"
    yield ("[]" if sep == "[\n" else "\n  ]") + tail + "\n"


def _table(fmt: str, config: dict, keys: Sequence[str], blocks: Iterable[Iterable[tuple]]) -> Iterator[str]:
    return _json_doc(config, keys, blocks) if fmt == "json" else _csv_doc(keys, blocks)


def _unit_from_args(args: argparse.Namespace) -> QuadraticUnit:
    return make_unit(args.family, args.m)


def _table_for(unit: QuadraticUnit, i: int) -> GFib:
    if i < 1:
        raise UsageError(f"--i must be >= 1, got {i}")
    return GFib.for_level(unit, i)


# ---------------------------------------------------------------- commands


def _seq_blocks(unit: QuadraticUnit, j_lo: int, j_hi: int) -> Iterator[Iterable[tuple]]:
    for j0 in range(j_lo, j_hi + 1, BLOCK_ROWS):
        floors = floor_window(unit, j0, min(BLOCK_ROWS, j_hi + 1 - j0)).floors
        yield zip(range(j0, j0 + len(floors)), floors)


def cmd_seq(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    config = {
        "command": "seq",
        "family": args.family,
        "m": args.m,
        "from": args.j_lo,
        "to": args.j_hi,
        "format": args.format,
    }
    blocks = _seq_blocks(unit, args.j_lo, args.j_hi)
    return _emit(_table(args.format, config, ("j", "floor"), blocks), args.out)


def _mismatch_blocks(unit: QuadraticUnit, table: GFib, i: int, ks: range, special: str) -> Iterator[list[tuple]]:
    for k0 in range(ks.start, ks.stop, BLOCK_ROWS):
        records = mismatch_set(unit, table, i, k0, min(k0 + BLOCK_ROWS, ks.stop) - 1)
        yield [(r.j, special if r.k is None else r.k, r.epsilon) for r in records]


def cmd_mismatch(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    table = _table_for(unit, args.i)
    if (args.k_lo is None) != (args.k_hi is None):
        raise UsageError("--k-from and --k-to must be given together")
    ks = index_range(unit, table, args.i, args.j_lo, args.j_hi)
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
        if args.k_lo > args.k_hi:
            raise UsageError(f"index range {args.k_lo}..{args.k_hi} is empty")
        # j(k) increases with k, so clipping to the j-window clips the index range
        ks = range(max(ks.start, args.k_lo), min(ks.stop, args.k_hi + 1))
        config["k_from"] = args.k_lo
        config["k_to"] = args.k_hi
    special = "null" if args.format == "json" else "special"
    blocks = _mismatch_blocks(unit, table, args.i, ks, special)
    return _emit(_table(args.format, config, ("j", "k", "epsilon"), blocks), args.out)


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
        fields = (json.dumps(exact), json.dumps(decimal), json.dumps(summary.target))
    else:
        fields = (exact, f"{decimal:.10f}", f"{summary.target:.10f}")
    keys = ("i", "n", "count", "total", "frequency", "frequency_decimal", "target")
    row = (summary.i, args.n, summary.mismatch_count, total, *fields)
    return _emit(_table(args.format, config, keys, [[row]]), args.out)


def _cut_blocks(unit: QuadraticUnit, window: Window, b_lo: int, b_hi: int) -> Iterator[list[tuple]]:
    # one b holds floor(hi - lo) or floor(hi - lo) + 1 points
    step = max(1, BLOCK_ROWS // ((window.hi - window.lo).floor() + 1))
    for b0 in range(b_lo, b_hi + 1, step):
        yield [(p.a, p.b) for p in cut_points(unit, window, b0, min(b0 + step - 1, b_hi))]


def cmd_cut(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    lo = parse_endpoint(args.lo, unit)
    hi = parse_endpoint(args.hi, unit)
    try:
        window = Window(lo, hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    blocks = _cut_blocks(unit, window, args.b_lo, args.b_hi)
    return _emit(_table(args.format, config, ("a", "b"), blocks), args.out)


# ---------------------------------------------------------------- plotting


def _value_range(main: Sequence[int], overlay: Sequence[int]) -> tuple[int, int]:
    """Lowest and highest value of the two lines; both are nondecreasing."""
    return min(main[0], overlay[0]), max(main[-1], overlay[-1])


def render_svg(j_lo: int, j_hi: int, main: Sequence[int], overlay: Sequence[int],
               marks: Sequence[int], label: str) -> Iterator[str]:
    count = len(main)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}" '
           f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}">\n')
    yield f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>\n'
    yield f'<text x="{SVG_MARGIN}" y="24" font-family="monospace" font-size="14">{label}</text>\n'
    x0, y0 = SVG_MARGIN, SVG_HEIGHT - SVG_MARGIN
    x1, y1 = SVG_WIDTH - SVG_MARGIN, SVG_MARGIN
    yield '<g class="axes" stroke="#333333" stroke-width="1">\n'
    yield f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}"/>\n'
    yield f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}"/>\n'
    yield "</g>\n"

    if count:
        vmin, vmax = _value_range(main, overlay)
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

        yield f'<path class="main" d="{step_path(main)}" fill="none" stroke="#2563a8" stroke-width="2"/>\n'
        yield (f'<path class="shifted" d="{step_path(overlay)}" fill="none" stroke="#c0392b" '
               f'stroke-width="2" stroke-dasharray="6 3"/>\n')
        yield '<g class="mismatches">\n'
        for j in marks:
            cx = (px(j) + px(j + 1)) / 2
            cy = py(main[j - j_lo])
            yield (f'<circle data-j="{j}" cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
                   f'fill="#e8a117" stroke="#222222" stroke-width="1"/>\n')
        yield "</g>\n"
    yield "</svg>\n"


def render_ascii(j_lo: int, main: Sequence[int], overlay: Sequence[int], marks: Sequence[int]) -> Iterator[str]:
    """One line per value, top down: '#' on the main line, '!' where it is
    a mismatch, '+' on the overlay.  Both lines are nondecreasing, so a
    value fills one run of columns on each, found by bisection."""
    if not main:
        return
    mark_set = set(marks)
    vmin, vmax = _value_range(main, overlay)
    for v in range(vmax, vmin - 1, -1):
        m0, m1 = bisect_left(main, v), bisect_right(main, v)
        o0, o1 = bisect_left(overlay, v), bisect_right(overlay, v)
        row = [" "] * max(m1, o1)
        row[o0:o1] = "+" * (o1 - o0)
        row[m0:m1] = ["!" if j_lo + c in mark_set else "#" for c in range(m0, m1)]
        yield "".join(row).rstrip() + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    unit = _unit_from_args(args)
    table = _table_for(unit, args.i)
    j_lo, j_hi = args.j_lo, args.j_hi
    count = max(0, j_hi - j_lo + 1)
    shift, drop = table[args.i], table[args.i - 1]
    if args.format == "svg" and count > PLOT_MAX_POINTS:
        raise UsageError(f"an svg plot of {count} points exceeds the cap of {PLOT_MAX_POINTS}")
    if args.format == "ascii" and count:
        # the floors are monotone, so the end points give the number of lines
        fm = unit.floor_mul
        lines = max(fm(j_hi), fm(j_hi + shift) - drop) - min(fm(j_lo), fm(j_lo + shift) - drop) + 1
        if count * lines > PLOT_MAX_CELLS:
            raise UsageError(f"an ascii plot of {count} columns x {lines} rows exceeds the cap "
                             f"of {PLOT_MAX_CELLS} cells")
    main = floor_window(unit, j_lo, count).floors
    overlay = [f - drop for f in floor_window(unit, j_lo + shift, count).floors]
    marks = [j for j, f, g in zip(range(j_lo, j_hi + 1), main, overlay) if f != g]
    if args.format == "ascii":
        doc = render_ascii(j_lo, main, overlay, marks)
    else:
        label = f"floor(j*beta) family={args.family} m={args.m} i={args.i} j={j_lo}..{j_hi}"
        doc = render_svg(j_lo, j_hi, main, overlay, marks, label)
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
    code = _emit([verify.render_report(results)], args.out)
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

    p_plot = sub.add_parser(
        "plot", help="step plot with the shifted overlay",
        description=f"Step plot of floor(j*beta) with its copy shifted by G_i.  Refused (exit 1): "
                    f"an svg of more than {PLOT_MAX_POINTS} points (j values), an ascii plot of more "
                    f"than {PLOT_MAX_CELLS} cells (columns x rows).",
    )
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
