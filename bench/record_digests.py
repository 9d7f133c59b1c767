"""Check every cli-emit case by an independent route, then record its digest.

    python3 bench/record_digests.py           # check, write bench/cli_digests.json
    python3 bench/record_digests.py --check   # check and compare, write nothing

A case's output is accepted only if its rows survive a check that does
not reuse the code path that produced them:

- ``seq``: each row (j, f) satisfies f <= j*beta < f + 1, decided by two
  ``pair_sign`` calls rather than by the square-root floor;
- ``cut``: each row (a, b) satisfies lo <= a + b*beta < hi by ``pair_sign``,
  every b of the range appears, and the neighbours a-1 below and a+1 above
  each run of a fall outside the window;
- ``mismatch``: the (j, epsilon) rows equal ``brute_force_mismatches`` over
  the same j-window, and each k reproduces j through the closed form with
  floor(k*beta) bracketed by ``pair_sign``;
- ``plot``: the marked positions (SVG ``data-j``, ASCII ``!``) equal the
  brute-force mismatch positions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from beattymatch import GFib, brute_force_mismatches, cli, make_unit  # noqa: E402


def _flag(argv: list[str], name: str) -> str:
    for k, arg in enumerate(argv):
        if arg == name:
            return argv[k + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    raise KeyError(name)


def _endpoint(text: str) -> tuple[int, int]:
    """(a, b) of the endpoint forms the cases use: "A" or "B*beta"."""
    if text.endswith("*beta"):
        return 0, int(text[: -len("*beta")])
    return int(text), 0


def _rows(data: bytes, fmt: str, keys: tuple[str, ...]) -> list[tuple]:
    if fmt == "json":
        return [tuple(row[k] for k in keys) for row in json.loads(data)["rows"]]
    reader = csv.reader(io.StringIO(data.decode()))
    if tuple(next(reader)) != keys:
        raise ValueError("unexpected csv header")
    return [tuple(reader_row) for reader_row in reader]


def _bracketed(unit, f: int, j: int) -> bool:
    """f <= j*beta < f + 1, by exact signs of a + b*beta."""
    return unit.pair_sign(-f, j) >= 0 and unit.pair_sign(-f - 1, j) < 0


def check_seq(unit, argv, data) -> None:
    lo, hi = int(_flag(argv, "--from")), int(_flag(argv, "--to"))
    rows = [(int(j), int(f)) for j, f in _rows(data, _flag(argv, "--format"), ("j", "floor"))]
    if [j for j, _ in rows] != list(range(lo, hi + 1)):
        raise ValueError("seq rows do not cover the range in order")
    for j, f in rows:
        if not _bracketed(unit, f, j):
            raise ValueError(f"seq row j={j} floor={f} is not the floor")


def check_cut(unit, argv, data) -> None:
    lo, hi = int(_flag(argv, "--from")), int(_flag(argv, "--to"))
    wlo, whi = _endpoint(_flag(argv, "--lo")), _endpoint(_flag(argv, "--hi"))
    rows = [(int(a), int(b)) for a, b in _rows(data, _flag(argv, "--format"), ("a", "b"))]

    def inside(a: int, b: int) -> bool:
        return unit.pair_sign(a - wlo[0], b - wlo[1]) >= 0 and unit.pair_sign(a - whi[0], b - whi[1]) < 0

    if rows != sorted(rows, key=lambda p: (p[1], p[0])):
        raise ValueError("cut rows are not ordered by (b, a)")
    by_b: dict[int, list[int]] = {}
    for a, b in rows:
        by_b.setdefault(b, []).append(a)
    if sorted(by_b) != list(range(lo, hi + 1)):
        raise ValueError("cut rows miss some b of the range")
    for b, run in by_b.items():
        if run != list(range(run[0], run[-1] + 1)):
            raise ValueError(f"cut rows at b={b} are not contiguous")
        if not all(inside(a, b) for a in run) or inside(run[0] - 1, b) or inside(run[-1] + 1, b):
            raise ValueError(f"cut rows at b={b} disagree with the window")


def check_mismatch(unit, argv, data) -> None:
    i = int(_flag(argv, "--i"))
    lo, hi = int(_flag(argv, "--from")), int(_flag(argv, "--to"))
    fam, m = unit.family.value, unit.m
    cur, succ = workloads.gfib(fam, m, i), workloads.gfib(fam, m, i + 1)
    rows = _rows(data, _flag(argv, "--format"), ("j", "k", "epsilon"))
    brute = brute_force_mismatches(unit, GFib.build(unit, i + 2), i, lo, hi)
    if [(int(j), int(e)) for j, _, e in rows] != brute:
        raise ValueError("mismatch rows differ from the brute-force scan")
    for j, k, _ in rows:
        j = int(j)
        if k in (None, "special"):
            if not (fam == "a" and i % 2 and j == -cur):
                raise ValueError(f"unexpected special row at j={j}")
            continue
        k = int(k)
        if fam == "a":
            f, rem = divmod(j - k * succ, cur)
        else:
            f, rem = divmod(k * succ - j, cur)
            f -= 1
        if rem or not _bracketed(unit, f, k):
            raise ValueError(f"row j={j} k={k} does not follow the closed form")


def check_plot(unit, argv, data) -> None:
    i = int(_flag(argv, "--i"))
    lo, hi = int(_flag(argv, "--from")), int(_flag(argv, "--to"))
    expect = [j for j, _ in brute_force_mismatches(unit, GFib.build(unit, i + 2), i, lo, hi)]
    text = data.decode()
    if _flag(argv, "--format") == "svg":
        marked = [int(x) for x in re.findall(r'data-j="(-?\d+)"', text)]
    else:
        columns = hi - lo + 1
        lines = [line.ljust(columns) for line in text.splitlines()]
        marked = [lo + c for c in range(columns) if any(line[c] == "!" for line in lines)]
    if marked != expect:
        raise ValueError("plot marks differ from the brute-force scan")


CHECKS = {"seq": check_seq, "cut": check_cut, "mismatch": check_mismatch, "plot": check_plot}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the recorded digests, write nothing")
    args = parser.parse_args()
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        for case in workloads.CLI_CASES:
            name, command, family, m = case[:4]
            argv = workloads.cli_argv(case)
            out = str(Path(tmp) / f"{name}.out")
            if cli.main(argv + ["--out", out]) != 0:
                print(f"{name}: cli exited non-zero", file=sys.stderr)
                return 1
            data = Path(out).read_bytes()
            CHECKS[command](make_unit(family, m), argv, data)
            digests[name] = hashlib.sha256(data).hexdigest()
            print(f"{name}: {len(data)} bytes checked")
    if args.check:
        recorded = workloads.load_digests()
        if recorded != digests:
            print("recorded digests differ from the checked outputs", file=sys.stderr)
            return 1
        print("recorded digests match")
        return 0
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
