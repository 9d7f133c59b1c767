"""Command-line front end.

Subcommands: seq (floor table), mismatch (closed-form exceptional
positions), plot (step graph with shifted overlay, SVG or ascii), freq
(exact window frequency), cut (cut-and-project points), verify
(cross-check suites).  Identical arguments produce byte-identical
output.  Exit codes: 0 success, 1 usage error, 2 verification failure
or a failed internal check, 3 output I/O error (including a reader that
closed the pipe).

Every argument is checked before the first byte goes out.  Each CSV or
JSON document is then one stream of plain row tuples, whose floors come
from the library's one floor stream, a certified floor window per
BLOCK_ROWS j; the writer cuts the rows into blocks of BLOCK_ROWS and
writes each with one ``%`` format, so no document, and no b-column of a
``cut`` however wide, is held in memory whole.  ``--out`` goes to a
temporary file that is renamed into place.  The parser is built once per
process, on the first call of :func:`main`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import verify
from .beatty import BLOCK_ROWS, _floor_stream, _mismatch_column, frequency_scan, index_range
from .cutproject import Window, _cut_rows
from .gfib import MAX_TABLE_BITS, GFib
from .units import InvariantError, QuadraticUnit, ZBeta, make_unit

SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = 48

# plot refuses more j than this as svg, and more columns x rows than this as ascii
PLOT_MAX_POINTS = 1 << 18
PLOT_MAX_CELLS = 1 << 24

_ENDPOINT_TERM = r"[+-]?\d+"


class UsageError(ValueError):
    pass


def _max_digits() -> int:
    """Python's int/str conversion limit in digits (sys.get_int_max_str_digits), 0 where none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _integer(text: str) -> int:
    """An integer argument; one past the digit limit is refused by name, not echoed."""
    try:
        return int(text)
    except ValueError:
        limit = _max_digits()
        if 0 < limit < len(text):
            raise argparse.ArgumentTypeError(f"longer than {limit} digits, Python's int/str limit") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def parse_endpoint(text: str, unit: QuadraticUnit) -> ZBeta:
    """Parse a window endpoint "A", "B*beta" or "A+B*beta" / "A-B*beta",
    where A and B are signed integers, B may stand in parentheses and
    spaces are ignored.  A term past the digit limit is refused by name,
    as :func:`_integer` refuses an integer argument."""
    # A, then the sign joining it to B*beta; the sign is there exactly when A is
    parts = re.fullmatch(rf"(?!$)({_ENDPOINT_TERM})?(?:(?(1)([+-]))\(?({_ENDPOINT_TERM})\)?\*beta)?",
                         text.replace(" ", ""))
    if parts is None:
        raise UsageError(f"cannot parse window endpoint {text!r}; expected forms like '1', '-2*beta', '1+(-1)*beta'")
    a, join, b = parts.groups()
    try:
        a, b = (0 if term is None else _integer(term) for term in (a, b))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"window endpoint term {exc}") from None
    return ZBeta(a, -b if join == "-" else b, unit)


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
    """Write the chunks to a temporary file beside the real path of ``out``,
    then rename it into place: a failure partway leaves ``out`` as it was and
    no temporary file behind, and a symbolic link keeps its target.  A path
    that exists but is not a regular file (a device, a pipe) is written in place."""
    out = os.path.realpath(out)
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    head, name = os.path.split(out)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # O_EXCL never reuses a file; mode 0o666 lets the umask decide, as open() does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(out).st_mode))
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_doc(keys: Sequence[str], rows: Iterable[tuple]) -> Iterator[str]:
    """CSV text of the rows, one chunk per block of BLOCK_ROWS rows, filled by
    one ``%`` on the block's values.  Every field is an int or a fixed token
    without commas, quotes or newlines, so none needs quoting and plain
    formatting equals csv.writer's output."""
    yield ",".join(keys) + "\n"
    line = ",".join(["%s"] * len(keys)) + "\n"
    rows = iter(rows)
    while values := tuple(chain.from_iterable(islice(rows, BLOCK_ROWS))):
        yield line * (len(values) // len(keys)) % values


def _json_doc(config: dict, keys: Sequence[str], rows: Iterable[tuple]) -> Iterator[str]:
    """The text of json.dumps({"config": config, "rows": rows}, indent=2,
    sort_keys=True) + newline, one chunk per block of BLOCK_ROWS rows, where
    each row maps ``keys`` to the JSON tokens of one tuple (ints, null, or
    already encoded strings and floats).  A block is one ``%`` on its values,
    taken in sorted-key order, into copies of one row template: with
    ``indent`` set, json.dumps runs its pure-Python encoder, several times
    slower."""
    head, _, tail = json.dumps({"config": config, "rows": []}, indent=2, sort_keys=True).rpartition("[]")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields = (json.dumps(keys[c]).replace("%", "%%") for c in order)
    row = "    {\n" + ",\n".join(f"      {key}: %s" for key in fields) + "\n    }"
    # keys already sorted need no reordering; itemgetter of one index would not give a tuple
    pick = None if order == list(range(len(keys))) else itemgetter(*order)
    rows = iter(rows if pick is None else map(pick, rows))
    yield head
    sep = "[\n"
    while values := tuple(chain.from_iterable(islice(rows, BLOCK_ROWS))):
        yield (sep + ",\n".join(repeat(row, len(values) // len(keys)))) % values
        sep = ",\n"
    yield ("[]" if sep == "[\n" else "\n  ]") + tail + "\n"


def _document(args: argparse.Namespace, keys: Sequence[str], rows: Iterable[tuple], **fields) -> int:
    """Write the rows as the CSV or JSON document of ``--format`` to ``--out``.
    The JSON config holds the command, unit and format of ``args`` and the
    command's own ``fields``."""
    if args.format == "json":
        config = {"command": args.command, "family": args.family, "m": args.m, "format": args.format, **fields}
        return _emit(_json_doc(config, keys, rows), args.out)
    return _emit(_csv_doc(keys, rows), args.out)


def _level_table(unit: QuadraticUnit, i: int) -> GFib:
    """G_0..G_i, the table of a command at level i.  Below level 1 it is
    G_0..G_1, so that GFib.level refuses the level by its own message."""
    return GFib.build(unit, max(i, 1))


# ---------------------------------------------------------------- commands


def cmd_seq(args: argparse.Namespace) -> int:
    js = range(args.j_lo, args.j_hi + 1)
    rows = zip(js, _floor_stream(make_unit(args.family, args.m), js))
    return _document(args, ("j", "floor"), rows, **{"from": args.j_lo, "to": args.j_hi})


def cmd_mismatch(args: argparse.Namespace) -> int:
    unit = make_unit(args.family, args.m)
    table = _level_table(unit, args.i)
    if (args.k_lo is None) != (args.k_hi is None):
        raise UsageError("--k-from and --k-to must be given together")
    ks = index_range(unit, table, args.i, args.j_lo, args.j_hi)
    fields = {"i": args.i, "from": args.j_lo, "to": args.j_hi}
    if args.k_lo is not None:
        if args.k_lo > args.k_hi:
            raise UsageError(f"index range {args.k_lo}..{args.k_hi} is empty")
        # j(k) increases with k, so clipping to the j-window clips the index range
        ks = range(max(ks.start, args.k_lo), min(ks.stop, args.k_hi + 1))
        fields.update(k_from=args.k_lo, k_to=args.k_hi)
    eps, js, column = _mismatch_column(unit, table, args.i, ks, "null" if args.format == "json" else "special")
    return _document(args, ("j", "k", "epsilon"), zip(js, column, repeat(eps)), **fields)


def cmd_freq(args: argparse.Namespace) -> int:
    unit = make_unit(args.family, args.m)
    total, limit = 2 * args.n + 1, _max_digits()
    if limit and total >= 10**limit:
        raise UsageError(f"--n: the total 2n + 1 would be longer than {limit} digits, Python's int/str limit")
    summary = frequency_scan(unit, _level_table(unit, args.i), args.i, args.n)
    exact = f"{summary.mismatch_count}/{total}"
    decimal = float(summary.frequency)
    if args.format == "json":
        tokens = (json.dumps(exact), json.dumps(decimal), json.dumps(summary.target))
    else:
        tokens = (exact, f"{decimal:.10f}", f"{summary.target:.10f}")
    keys = ("i", "n", "count", "total", "frequency", "frequency_decimal", "target")
    row = (summary.i, args.n, summary.mismatch_count, total, *tokens)
    return _document(args, keys, [row], i=args.i, n=args.n)


def cmd_cut(args: argparse.Namespace) -> int:
    unit = make_unit(args.family, args.m)
    lo = parse_endpoint(args.lo, unit)
    hi = parse_endpoint(args.hi, unit)
    rows = _cut_rows(unit, Window(lo, hi), args.b_lo, args.b_hi)
    return _document(args, ("a", "b"), rows, lo=str(lo), hi=str(hi), **{"from": args.b_lo, "to": args.b_hi})


# ---------------------------------------------------------------- plotting


def render_svg(j_lo: int, main: Sequence[int], overlay: Sequence[int],
               marks: Sequence[int], vmin: int, vmax: int, label: str) -> Iterator[str]:
    """The plot as SVG text, scaled so that the values vmin..vmax of the two lines fill its height."""
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


def render_ascii(j_lo: int, main: Sequence[int], overlay: Sequence[int], marks: Sequence[int],
                 vmin: int, vmax: int) -> Iterator[str]:
    """One line per value from vmax down to vmin, the values of the two lines:
    '#' on the main line, '!' where it is a mismatch, '+' on the overlay.  Both
    lines are nondecreasing, so a value fills one run of columns on each,
    found by bisection."""
    if not main:
        return
    mark_set = set(marks)
    for v in range(vmax, vmin - 1, -1):
        m0, m1 = bisect_left(main, v), bisect_right(main, v)
        o0, o1 = bisect_left(overlay, v), bisect_right(overlay, v)
        row = [" "] * max(m1, o1)
        row[o0:o1] = "+" * (o1 - o0)
        row[m0:m1] = ["!" if j_lo + c in mark_set else "#" for c in range(m0, m1)]
        yield "".join(row).rstrip() + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    unit = make_unit(args.family, args.m)
    table = _level_table(unit, args.i)
    j_lo, j_hi = args.j_lo, args.j_hi
    count = max(0, j_hi - j_lo + 1)
    drop, shift = table.level(unit, args.i)
    if args.format == "svg" and count > PLOT_MAX_POINTS:
        raise UsageError(f"an svg plot of {count} points exceeds the cap of {PLOT_MAX_POINTS}")
    # the floors are monotone, so the end points give the value range of both lines
    fm = unit.floor_mul
    vmin, vmax = min(fm(j_lo), fm(j_lo + shift) - drop), max(fm(j_hi), fm(j_hi + shift) - drop)
    lines = vmax - vmin + 1
    if args.format == "ascii" and count * lines > PLOT_MAX_CELLS:
        raise UsageError(f"an ascii plot of {count} columns x {lines} rows exceeds the cap "
                         f"of {PLOT_MAX_CELLS} cells")
    main = list(_floor_stream(unit, range(j_lo, j_hi + 1)))
    overlay = [f - drop for f in _floor_stream(unit, range(j_lo + shift, j_hi + 1 + shift))]
    marks = [j for j, f, g in zip(range(j_lo, j_hi + 1), main, overlay) if f != g]
    if args.format == "ascii":
        doc = render_ascii(j_lo, main, overlay, marks, vmin, vmax)
    else:
        label = f"floor(j*beta) family={args.family} m={args.m} i={args.i} j={j_lo}..{j_hi}"
        doc = render_svg(j_lo, main, overlay, marks, vmin, vmax, label)
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


def _add_unit_flags(p: argparse.ArgumentParser, level: bool = False) -> None:
    p.add_argument("--family", choices=("a", "b"), default="a",
                   help="unit family: a solves x^2+mx=1, b solves x^2-mx=-1 (default a)")
    p.add_argument("--m", type=_integer, default=1, help="recurrence parameter (default 1)")
    if level:
        p.add_argument("--i", type=_integer, default=1, help="shift level (default 1)")


def _add_range_flags(p: argparse.ArgumentParser, lo: int, hi: int, what: str, axis: str = "j") -> None:
    p.add_argument("--from", dest=f"{axis}_lo", type=_integer, default=lo, help=f"first {what} (default {lo})")
    p.add_argument("--to", dest=f"{axis}_hi", type=_integer, default=hi, help=f"last {what} (default {hi})")


def _add_output_flags(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beattymatch",
        description="Exact Beatty-sequence self-matching toolkit for quadratic Pisot units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="table of floor(j*beta)")
    _add_unit_flags(p_seq)
    _add_range_flags(p_seq, 0, 20, "index j")
    _add_output_flags(p_seq, ("csv", "json"))
    p_seq.set_defaults(handler=cmd_seq)

    p_mis = sub.add_parser("mismatch", help="closed-form exceptional positions")
    _add_unit_flags(p_mis, level=True)
    _add_range_flags(p_mis, -20, 20, "position j")
    p_mis.add_argument("--k-from", dest="k_lo", type=_integer, default=None, help="explicit low index")
    p_mis.add_argument("--k-to", dest="k_hi", type=_integer, default=None, help="explicit high index")
    _add_output_flags(p_mis, ("csv", "json"))
    p_mis.set_defaults(handler=cmd_mismatch)

    p_plot = sub.add_parser(
        "plot", help="step plot with the shifted overlay",
        description=f"Step plot of floor(j*beta) with its copy shifted by G_i.  Refused (exit 1): "
                    f"an svg of more than {PLOT_MAX_POINTS} points (j values), an ascii plot of more "
                    f"than {PLOT_MAX_CELLS} cells (columns x rows).",
    )
    _add_unit_flags(p_plot, level=True)
    _add_range_flags(p_plot, 0, 40, "index j")
    _add_output_flags(p_plot, ("svg", "ascii"))
    p_plot.set_defaults(handler=cmd_plot)

    p_freq = sub.add_parser("freq", help="exact mismatch frequency over [-n, n]")
    _add_unit_flags(p_freq, level=True)
    p_freq.add_argument("--n", type=_integer, default=100_000, help="window radius (default 100000)")
    _add_output_flags(p_freq, ("csv", "json"))
    p_freq.set_defaults(handler=cmd_freq)

    p_cut = sub.add_parser("cut", help="cut-and-project points for a window",
                           description="Cut-and-project points a + b*beta in [lo, hi).")
    _add_unit_flags(p_cut)
    p_cut.add_argument("--lo", default="0", help="window low endpoint, e.g. '0' or '1+(-1)*beta'")
    p_cut.add_argument("--hi", default="1", help="window high endpoint (exclusive)")
    _add_range_flags(p_cut, -10, 10, "b coordinate", axis="b")
    _add_output_flags(p_cut, ("csv", "json"))
    p_cut.set_defaults(handler=cmd_cut)

    p_ver = sub.add_parser(
        "verify", help="run the cross-check suites",
        description=f"Run the cross-check suites over the six-unit grid.  Refused (exit 1): --window "
                    f"above {verify.MAX_WINDOW}, --b-span above {verify.MAX_B_SPAN}, an --i-max below 1, and one at "
                    f"which the grid's recurrence tables together could exceed {MAX_TABLE_BITS} bits.",
    )
    p_ver.add_argument("--suite", dest="suites", action="append", choices=verify.SUITES,
                       default=None, help="run one suite (repeatable; default all)")
    p_ver.add_argument("--i-max", dest="i_max", type=_integer, default=verify.DEFAULT_I_MAX)
    p_ver.add_argument("--window", type=_integer, default=verify.DEFAULT_WINDOW)
    p_ver.add_argument("--n", type=_integer, default=verify.DEFAULT_FREQ_N)
    p_ver.add_argument("--b-span", dest="b_span", type=_integer, default=verify.DEFAULT_B_SPAN)
    p_ver.add_argument("--inject-fault", dest="inject_fault", type=_integer, default=None,
                       help=argparse.SUPPRESS)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except InvariantError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
