from __future__ import annotations

import csv
import io
import json
import os
import stat
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET

import pytest

from beattymatch import GFib, ZBeta, beta_pow, brute_force_mismatches, make_unit, mismatch_set
from beattymatch import cli
from beattymatch.cli import BLOCK_ROWS, CUT_MAX_WIDTH, PLOT_MAX_CELLS, PLOT_MAX_POINTS, main, parse_endpoint
from beattymatch.gfib import MAX_TABLE_BITS
from beattymatch.verify import MAX_B_SPAN, MAX_WINDOW


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- seq


def test_seq_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "a", "--m", "1", "--from", "0", "--to", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["j", "floor"]
    assert rows == [["0", "0"], ["1", "0"], ["2", "1"], ["3", "1"], ["4", "2"], ["5", "3"]]


def test_seq_csv_minus_family(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "b", "--m", "3", "--from", "0", "--to", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0", "0"], ["1", "0"], ["2", "0"], ["3", "1"]]


def test_seq_single_row(capsys):
    code, out, _ = run_cli(capsys, "seq", "--from", "0", "--to", "0")
    assert code == 0
    assert out == "j,floor\n0,0\n"


def test_seq_json_agrees_with_csv(capsys):
    args = ("seq", "--family", "b", "--m", "4", "--from", "-7", "--to", "9")
    _, out_csv, _ = run_cli(capsys, *args)
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    doc = json.loads(out_json)
    assert doc["config"]["family"] == "b"
    assert doc["config"]["m"] == 4
    _, rows = parse_csv(out_csv)
    assert [[str(r["j"]), str(r["floor"])] for r in doc["rows"]] == rows


def test_seq_negative_range(capsys):
    code, out, _ = run_cli(capsys, "seq", "--from", "-3", "--to", "-1")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["-3", "-2"], ["-2", "-2"], ["-1", "-1"]]


def test_seq_empty_range(capsys):
    code, out, _ = run_cli(capsys, "seq", "--from", "5", "--to", "4")
    assert code == 0
    assert out == "j,floor\n"


# ---------------------------------------------------------------- mismatch


def test_mismatch_csv_even_level(capsys):
    code, out, _ = run_cli(
        capsys, "mismatch", "--family", "a", "--m", "1", "--i", "2", "--from", "0", "--to", "6"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0", "0", "-1"], ["2", "1", "-1"], ["5", "2", "-1"]]


def test_mismatch_csv_special_row(capsys):
    code, out, _ = run_cli(
        capsys, "mismatch", "--family", "a", "--m", "1", "--i", "1", "--from", "-3", "--to", "5"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert ["-1", "special", "1"] in rows
    assert rows == [["-2", "-1", "1"], ["-1", "special", "1"], ["1", "1", "1"], ["3", "2", "1"], ["4", "3", "1"]]


def test_mismatch_json_special_is_null(capsys):
    code, out, _ = run_cli(
        capsys, "mismatch", "--family", "a", "--m", "1", "--i", "1",
        "--from", "-3", "--to", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    ks = [r["k"] for r in doc["rows"]]
    assert None in ks
    assert [r["j"] for r in doc["rows"]] == [-2, -1, 1, 3, 4]


def test_mismatch_explicit_k_range(capsys):
    code, out, _ = run_cli(
        capsys, "mismatch", "--family", "b", "--m", "3", "--i", "1",
        "--k-from", "0", "--k-to", "3", "--from", "-20", "--to", "20",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["-1", "2", "5", "7"]


def test_mismatch_k_flags_must_pair(capsys):
    code, _, err = run_cli(capsys, "mismatch", "--k-from", "0")
    assert code == 1
    assert "error" in err


def test_mismatch_agrees_with_brute_force(capsys):
    code, out, _ = run_cli(
        capsys, "mismatch", "--family", "b", "--m", "5", "--i", "3", "--from", "-300", "--to", "300"
    )
    assert code == 0
    _, rows = parse_csv(out)
    u = make_unit("b", 5)
    t = GFib.build(u)
    want = brute_force_mismatches(u, t, 3, -300, 300)
    assert [(int(r[0]), int(r[2])) for r in rows] == want


def test_mismatch_empty_intersection(capsys):
    code, out, _ = run_cli(
        capsys, "mismatch", "--family", "a", "--m", "1", "--i", "2", "--from", "3", "--to", "4"
    )
    assert code == 0
    assert out == "j,k,epsilon\n"


# ---------------------------------------------------------------- freq


def test_freq_csv_fields(capsys):
    code, out, _ = run_cli(capsys, "freq", "--family", "a", "--m", "1", "--i", "1", "--n", "1000")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["i", "n", "count", "total", "frequency", "frequency_decimal", "target"]
    (row,) = rows
    assert row[0] == "1"
    assert row[3] == "2001"
    count = int(row[2])
    assert row[4] == f"{count}/2001"
    assert abs(float(row[5]) - count / 2001) < 1e-9  # field is printed with 10 decimals
    assert abs(float(row[6]) - 0.6180339887) < 1e-9


def test_freq_json(capsys):
    code, out, _ = run_cli(
        capsys, "freq", "--family", "b", "--m", "3", "--i", "2", "--n", "500", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["rows"]
    assert row["total"] == 1001
    assert row["frequency"].endswith("/1001")
    assert abs(row["target"] - 0.1458980338) < 1e-9


def test_freq_huge_radius_is_bounded(capsys):
    # the count costs a constant number of floors, so n = 10**30 answers at once
    n = 10**30
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "freq", "--family", "b", "--m", "5", "--i", "7", "--n", str(n))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    _, (row,) = parse_csv(out)
    count = int(row[2])
    unit = make_unit("b", 5)
    gap = unit.element(count, 0) - beta_pow(unit, GFib.build(unit), 7) * (2 * n + 1)
    assert -2 < gap < 2


def test_freq_rejects_negative_n(capsys):
    code, _, err = run_cli(capsys, "freq", "--n", "-5")
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------- cut


def test_cut_unit_window(capsys):
    code, out, _ = run_cli(
        capsys, "cut", "--family", "a", "--m", "1", "--lo", "0", "--hi", "1", "--from", "0", "--to", "3"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0", "0"], ["0", "1"], ["-1", "2"], ["-1", "3"]]


def test_cut_beta_window_matches_mismatch_positions(capsys):
    # window [0, beta^2) = [0, 1 - beta) for family a, m=1
    code, out, _ = run_cli(
        capsys, "cut", "--family", "a", "--m", "1",
        "--lo", "0", "--hi", "1+(-1)*beta", "--from", "-15", "--to", "15",
    )
    assert code == 0
    _, rows = parse_csv(out)
    bs = [int(r[1]) for r in rows]
    u = make_unit("a", 1)
    t = GFib.build(u)
    want = [j for j, _ in brute_force_mismatches(u, t, 2, -15, 15)]
    assert bs == want


def test_cut_endpoint_forms(capsys):
    for hi in ("1-1*beta", "1+(-1)*beta", "1 + (-1)*beta"):
        code, out, _ = run_cli(
            capsys, "cut", "--family", "a", "--m", "1", "--lo", "0", "--hi", hi, "--from", "0", "--to", "5"
        )
        assert code == 0
    # leading-dash endpoints need the = form so argparse does not read them as flags
    code2, out2, _ = run_cli(
        capsys, "cut", "--family", "a", "--m", "1", "--lo=-1*beta", "--hi", "2*beta", "--from", "0", "--to", "2"
    )
    assert code2 == 0
    _, rows = parse_csv(out2)
    assert rows == [["0", "0"], ["1", "0"], ["-1", "1"], ["0", "1"], ["-1", "2"]]


def test_cut_bad_endpoint_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cut", "--lo", "zzz", "--hi", "1")
    assert code == 1
    assert "endpoint" in err


def test_cut_reversed_window_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cut", "--lo", "1", "--hi", "0")
    assert code == 1
    assert "error" in err


def test_parse_endpoint_unit():
    u = make_unit("a", 1)
    assert parse_endpoint("-3", u) == u.element(-3, 0)
    assert parse_endpoint("4*beta", u) == u.element(0, 4)
    assert parse_endpoint("2-5*beta", u) == u.element(2, -5)


# ---------------------------------------------------------------- plot


def marker_positions(svg_text):
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    return [int(c.get("data-j")) for c in root.iter("{http://www.w3.org/2000/svg}circle")]


def test_plot_svg_markers_match_mismatches(capsys):
    code, out, _ = run_cli(
        capsys, "plot", "--family", "a", "--m", "1", "--i", "2", "--from", "0", "--to", "40"
    )
    assert code == 0
    u = make_unit("a", 1)
    t = GFib.build(u)
    want = [j for j, _ in brute_force_mismatches(u, t, 2, 0, 40)]
    assert marker_positions(out) == want
    assert want[:5] == [0, 2, 5, 7, 10]


def test_plot_svg_has_fixed_viewbox(capsys):
    code, out, _ = run_cli(capsys, "plot", "--from", "0", "--to", "10")
    assert code == 0
    root = ET.fromstring(out)
    assert root.get("viewBox") == "0 0 800 600"
    paths = [el for el in root.iter("{http://www.w3.org/2000/svg}path")]
    assert len(paths) == 2


def test_plot_empty_range_minimal_svg(capsys):
    code, out, _ = run_cli(capsys, "plot", "--from", "5", "--to", "0")
    assert code == 0
    root = ET.fromstring(out)
    lines = list(root.iter("{http://www.w3.org/2000/svg}line"))
    assert len(lines) == 2  # axes only
    assert not list(root.iter("{http://www.w3.org/2000/svg}path"))
    assert not list(root.iter("{http://www.w3.org/2000/svg}circle"))


def test_plot_ascii_golden(capsys):
    code, out, _ = run_cli(
        capsys, "plot", "--family", "a", "--m", "1", "--i", "2", "--from", "0", "--to", "10",
        "--format", "ascii",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "          !",
        "         #+",
        "       !#",
        "     !#+",
        "    #+",
        "  !#",
        "!#+",
        "+",
    ]


def test_plot_ascii_marks_equal_mismatches(capsys):
    code, out, _ = run_cli(
        capsys, "plot", "--family", "b", "--m", "3", "--i", "1", "--from", "-2", "--to", "8",
        "--format", "ascii",
    )
    assert code == 0
    cols = set()
    for line in out.splitlines():
        for idx, ch in enumerate(line):
            if ch == "!":
                cols.add(idx - 2)
    assert cols == {-1, 2, 5, 7}


# ---------------------------------------------------------------- determinism


def test_byte_identical_reruns(capsys):
    for args in (
        ("seq", "--from", "0", "--to", "50", "--format", "json"),
        ("plot", "--i", "2", "--from", "0", "--to", "60"),
        ("mismatch", "--i", "3", "--from", "-40", "--to", "40", "--format", "json"),
        ("cut", "--lo", "0", "--hi", "1", "--from", "-20", "--to", "20"),
    ):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_formats_agree_on_mismatch_data(capsys):
    args = ("mismatch", "--family", "a", "--m", "2", "--i", "2", "--from", "-30", "--to", "30")
    _, out_csv, _ = run_cli(capsys, *args)
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    _, rows = parse_csv(out_csv)
    jrows = json.loads(out_json)["rows"]
    assert [(int(r[0]), int(r[2])) for r in rows] == [(r["j"], r["epsilon"]) for r in jrows]
    _, out_svg, _ = run_cli(
        capsys, "plot", "--family", "a", "--m", "2", "--i", "2", "--from", "-30", "--to", "30"
    )
    assert marker_positions(out_svg) == [r["j"] for r in jrows]


# ---------------------------------------------------------------- verify and exit codes


def test_verify_small_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "range-law", "--suite", "set-equivalence",
        "--window", "150", "--i-max", "4",
    )
    assert code == 0
    assert "overall: PASS" in out


def test_verify_fault_injection_fails_suite_two(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "criterion-equivalence",
        "--window", "150", "--i-max", "4", "--inject-fault", "0",
    )
    assert code == 2
    assert "criterion-equivalence" in out
    assert "FAIL" in out


def test_verify_refuses_a_fault_that_injects_nothing(capsys):
    # out of the window, or with no criterion-equivalence to carry it
    for argv in (("--suite", "criterion-equivalence", "--i-max", "2", "--window", "100", "--inject-fault", "20000"),
                 ("--suite", "range-law", "--inject-fault", "0")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (1, ""), argv
        assert "fault position" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "seq", "--family", "c")[0] == 1
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "freq", "--family", "b", "--m", "2")[0] == 1  # m too small
    assert run_cli(capsys, "mismatch", "--i", "0")[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_unwritable_output_exits_three(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run_cli(capsys, "seq", "--out", str(target))
    assert code == 3
    assert "cannot write" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "seq", "--from", "0", "--to", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "j,floor\n0,0\n1,0\n2,1\n3,1\n"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "beattymatch", "seq", "--from", "0", "--to", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "j,floor\n0,0\n1,0\n2,1\n"


# ---------------------------------------------------------------- streaming emitters


def json_oracle(config, rows):
    return json.dumps({"config": config, "rows": rows}, indent=2, sort_keys=True) + "\n"


def csv_oracle(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


BIG = 2**130 + 7
EMITTER_ROWS = (
    [],
    [(0, 0, 1)],
    [(-1, None, 1)],
    [(-BIG, -3, -1), (BIG, None, 1), (2**129, 2**128 + 1, -1), (-(2**200), 0, 1)],
)


@pytest.mark.parametrize("rows", EMITTER_ROWS)
def test_emitters_equal_json_dumps_and_csv_writer(rows):
    keys = ("j", "k", "epsilon")
    config = {"command": "mismatch", "family": "a", "from": -BIG, "to": BIG, "k_from": None}
    # split into blocks, an empty one among them, as the commands may yield
    blocks = [rows[:1], [], rows[1:]]

    def tokens(special):
        return [[tuple(special if v is None else v for v in r) for r in b] for b in blocks]

    got_json = "".join(cli._json_doc(config, keys, tokens("null")))
    assert got_json == json_oracle(config, [dict(zip(keys, r)) for r in rows])
    got_csv = "".join(cli._csv_doc(keys, tokens("special")))
    assert got_csv == csv_oracle(keys, [["special" if v is None else v for v in r] for r in rows])


@pytest.mark.parametrize("extra", (-1, 0, 1))
def test_seq_at_block_seams(capsys, extra):
    # a run of BLOCK_ROWS - 1, BLOCK_ROWS and BLOCK_ROWS + 1 rows past 128
    # bits, with the convergent denominator G_190 just past the first seam
    unit = make_unit("a", 1)
    j_lo = GFib.build(unit, 192)[190] - BLOCK_ROWS
    j_hi = j_lo + BLOCK_ROWS + extra - 1
    rows = [(j, unit.floor_mul(j)) for j in range(j_lo, j_hi + 1)]
    args = ("seq", "--family", "a", "--m", "1", f"--from={j_lo}", f"--to={j_hi}")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == csv_oracle(("j", "floor"), rows)
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    config = {"command": "seq", "family": "a", "m": 1, "from": j_lo, "to": j_hi, "format": "json"}
    assert out == json_oracle(config, [{"j": j, "floor": f} for j, f in rows])


@pytest.mark.parametrize("k_lo, extra", ((-5, -1), (-5, 0), (-5, 1), (-BLOCK_ROWS - 5, 1)),
                         ids=("-1", "0", "1", "later-block"))
def test_mismatch_at_block_seams(capsys, k_lo, extra):
    # the window holds the positions k_lo..BLOCK_ROWS + extra - 6, the special
    # one at k = 0 among them: in the first block, or inside the second
    unit = make_unit("a", 1)
    table = GFib.build(unit)
    records = mismatch_set(unit, table, 3, k_lo, BLOCK_ROWS + extra - 6)
    j_lo, j_hi = records[0].j, records[-1].j
    args = ("mismatch", "--family", "a", "--m", "1", "--i", "3", f"--from={j_lo}", f"--to={j_hi}")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == csv_oracle(("j", "k", "epsilon"),
                             [(r.j, "special" if r.k is None else r.k, r.epsilon) for r in records])
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    config = {"command": "mismatch", "family": "a", "m": 1, "i": 3, "from": j_lo, "to": j_hi, "format": "json"}
    assert out == json_oracle(config, [{"j": r.j, "k": r.k, "epsilon": r.epsilon} for r in records])


def test_mismatch_k_range_clipped_to_window(capsys):
    args = ("mismatch", "--family", "a", "--m", "1", "--i", "1", "--from", "-3", "--to", "5")
    code, out, _ = run_cli(capsys, *args, "--k-from", "-100", "--k-to", "1")
    assert code == 0
    assert out == "j,k,epsilon\n-2,-1,1\n-1,special,1\n1,1,1\n"
    code, out, _ = run_cli(capsys, *args, "--k-from", "50", "--k-to", "60")
    assert code == 0
    assert out == "j,k,epsilon\n"
    code, out, err = run_cli(capsys, *args, "--k-from", "3", "--k-to", "2")
    assert code == 1
    assert out == ""
    assert "empty" in err


def test_cut_blocks_equal_pointwise_route(capsys):
    # four points per b, so a block holds BLOCK_ROWS // 4 values of b; the
    # range spans three blocks around the convergent denominator G_120
    unit = make_unit("b", 4)
    lo, hi = unit.element(0, -1), unit.element(3, 0)
    centre = GFib.build(unit, 122)[120]
    b_lo, b_hi = centre - BLOCK_ROWS // 4, centre + BLOCK_ROWS // 4 + 3
    rows = [(a, b) for b in range(b_lo, b_hi + 1)
            for a in range(ZBeta(0, -1 - b, unit).ceil(), ZBeta(3, -b, unit).ceil())]
    args = ("cut", "--family", "b", "--m", "4", "--lo=-1*beta", "--hi", "3", f"--from={b_lo}", f"--to={b_hi}")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == csv_oracle(("a", "b"), rows)
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    config = {"command": "cut", "family": "b", "m": 4, "lo": str(lo), "hi": str(hi),
              "from": b_lo, "to": b_hi, "format": "json"}
    assert out == json_oracle(config, [{"a": a, "b": b} for a, b in rows])


def test_freq_json_equals_json_dumps(capsys):
    code, out, _ = run_cli(capsys, "freq", "--family", "a", "--m", "2", "--i", "3", "--n", "777", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json_oracle(doc["config"], doc["rows"])


def ascii_oracle(j_lo, main, overlay, marks):
    """The plot cell by cell: every value from the top, every column."""
    lines = []
    for v in range(max(main + overlay), min(main + overlay) - 1, -1):
        row = ""
        for idx in range(len(main)):
            ch = "+" if overlay[idx] == v else " "
            if main[idx] == v:
                ch = "!" if j_lo + idx in marks else "#"
            row += ch
        lines.append(row.rstrip() + "\n")
    return "".join(lines)


@pytest.mark.parametrize("family, m, i, j_lo, j_hi", [
    ("a", 1, 2, 0, 30), ("a", 3, 1, -17, 25), ("b", 3, 2, -40, 3), ("b", 7, 5, 100, 180), ("a", 2, 4, 5, 5),
])
def test_plot_ascii_equals_cell_by_cell_oracle(capsys, family, m, i, j_lo, j_hi):
    unit = make_unit(family, m)
    table = GFib.build(unit)
    js = range(j_lo, j_hi + 1)
    main = [unit.floor_mul(j) for j in js]
    overlay = [unit.floor_mul(j + table[i]) - table[i - 1] for j in js]
    marks = {j for j, _ in brute_force_mismatches(unit, table, i, j_lo, j_hi)}
    code, out, _ = run_cli(capsys, "plot", "--family", family, "--m", str(m), "--i", str(i),
                           f"--from={j_lo}", f"--to={j_hi}", "--format", "ascii")
    assert code == 0
    assert out == ascii_oracle(j_lo, main, overlay, marks)


# ---------------------------------------------------------------- plot caps


def test_plot_caps_refuse_before_any_output(capsys, tmp_path):
    target = tmp_path / "plot.out"
    code, out, err = run_cli(capsys, "plot", "--format", "ascii", "--to", "1000000", "--out", str(target))
    assert code == 1
    assert str(PLOT_MAX_CELLS) in err
    assert not target.exists()
    code, out, err = run_cli(capsys, "plot", "--from", "1", "--to", str(PLOT_MAX_POINTS + 1))
    assert (code, out) == (1, "")
    assert str(PLOT_MAX_POINTS) in err
    # 2001 columns x 765 rows is under the cap and renders
    code, out, _ = run_cli(capsys, "plot", "--family", "b", "--m", "3", "--format", "ascii", "--to", "2000")
    assert code == 0
    assert sum(len(line) for line in out.splitlines()) <= PLOT_MAX_CELLS


def test_plot_help_names_the_caps(capsys):
    code, out, _ = run_cli(capsys, "plot", "--help")
    assert code == 0
    assert str(PLOT_MAX_POINTS) in out and str(PLOT_MAX_CELLS) in out


def test_cut_width_cap(capsys, tmp_path):
    # floor(hi - lo) + 1 == CUT_MAX_WIDTH is the widest legal window
    code, out, _ = run_cli(capsys, "cut", "--hi", str(CUT_MAX_WIDTH - 1), "--from", "0", "--to", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "b"]
    assert rows == [[str(a), "0"] for a in range(CUT_MAX_WIDTH - 1)]
    code, out, err = run_cli(capsys, "cut", "--hi", str(CUT_MAX_WIDTH), "--from", "0", "--to", "0")
    assert (code, out) == (1, "")
    assert str(CUT_MAX_WIDTH) in err
    target = tmp_path / "cut.out"
    assert run_cli(capsys, "cut", "--hi", "1000000000", "--out", str(target))[0] == 1
    assert not target.exists()
    code, out, _ = run_cli(capsys, "cut", "--help")
    assert code == 0 and str(CUT_MAX_WIDTH) in out


def test_verify_refuses_levels_below_one(capsys):
    # a run with no level to check must not print a passing report
    for i_max in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--i-max", i_max,
                                 "--suite", "range-law", "--suite", "frequency", "--suite", "level-bridge")
        assert (code, out) == (1, ""), i_max
        assert "i_max" in err


def test_verify_refuses_negative_n(capsys):
    # refused up front, not after the window suites have run
    for argv in (("verify", "--n", "-1"), ("verify", "--suite", "range-law", "--n", "-1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "radius n" in err


def test_verify_and_table_caps(capsys, tmp_path):
    # one past each cap exits 1 before anything is built or written
    target = tmp_path / "refused.out"
    for argv in (("verify", "--suite", "range-law", "--window", str(MAX_WINDOW + 1)),
                 ("verify", "--suite", "unit-interval", "--b-span", str(MAX_B_SPAN + 1)),
                 ("verify", "--suite", "frequency", "--i-max", "100000"),
                 ("freq", "--m", "1000000", "--i", "100000"),
                 ("mismatch", "--m", "1000000", "--i", "100000"),
                 ("plot", "--m", "1000000", "--i", "100000")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "error" in err
        assert run_cli(capsys, *argv, "--out", str(target))[0] == 1
        assert not target.exists()
    # the caps themselves are legal, and so is an ordinary level
    args = ("verify", "--suite", "power-identities", "--window", str(MAX_WINDOW), "--b-span", str(MAX_B_SPAN))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and "overall: PASS" in out
    code, out, _ = run_cli(capsys, "freq", "--m", "1000000", "--i", "100", "--n", "5")
    assert code == 0 and out.startswith("i,n,count,")
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert all(str(cap) in out for cap in (MAX_WINDOW, MAX_B_SPAN, MAX_TABLE_BITS))


# ---------------------------------------------------------------- atomic --out


def _fail_on_second_block(monkeypatch, exc):
    plain = cli.floor_window
    seen = []

    def floor_window(unit, j0, count):
        if seen:
            raise exc
        seen.append(j0)
        return plain(unit, j0, count)

    monkeypatch.setattr(cli, "floor_window", floor_window)


@pytest.mark.parametrize("exc, want_code", [(OSError(28, "No space left on device"), 3), (ValueError("bad"), 1)])
@pytest.mark.parametrize("existing", [True, False])
def test_out_failure_partway_leaves_target_alone(capsys, tmp_path, monkeypatch, exc, want_code, existing):
    target = tmp_path / "rows.csv"
    if existing:
        target.write_text("old\n")
    _fail_on_second_block(monkeypatch, exc)
    code, _, err = run_cli(capsys, "seq", "--to", str(2 * BLOCK_ROWS), "--out", str(target))
    assert code == want_code
    assert "error" in err
    assert os.listdir(tmp_path) == (["rows.csv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


def test_out_replaces_target_and_keeps_its_mode(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    assert run_cli(capsys, "seq", "--to", "2", "--out", str(target))[0] == 0
    assert target.read_text() == "j,floor\n0,0\n1,0\n2,1\n"
    assert target.stat().st_mode & 0o777 == 0o640
    fresh, reference = tmp_path / "fresh.csv", tmp_path / "reference"
    reference.write_text("")
    assert run_cli(capsys, "seq", "--to", "2", "--out", str(fresh))[0] == 0
    assert fresh.stat().st_mode & 0o777 == reference.stat().st_mode & 0o777
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "reference", "rows.csv"]


def test_out_to_a_pipe_writes_in_place(capsys, tmp_path):
    # a path that is not a regular file is opened, never replaced
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = run_cli(capsys, "seq", "--to", "2", "--out", str(fifo))[0]
    reader.join(timeout=30)
    assert code == 0
    assert got == ["j,floor\n0,0\n1,0\n2,1\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


# ---------------------------------------------------------------- processes

PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)
# whole documents held in memory took 335 MiB (seq) and 110 MiB (cut) here
STREAMING_RSS_MIB = 64


def child_peak_rss_mib(*argv):
    """Peak RSS of ``beattymatch argv`` alone: a fresh parent runs it as its only child."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "beattymatch", *argv],
                          capture_output=True, text=True, check=True)
    return int(proc.stdout) / (1024 * 1024 if sys.platform == "darwin" else 1024)


@pytest.mark.parametrize("argv", [
    ("seq", "--from", "0", "--to", "2000000"),
    ("cut", "--lo", "0", "--hi", "20000", "--from", "0", "--to", "20"),
])
def test_streaming_keeps_memory_bounded(tmp_path, argv):
    target = tmp_path / "out.csv"
    assert child_peak_rss_mib(*argv, "--out", str(target)) < STREAMING_RSS_MIB
    with target.open("rb") as fh:
        lines = sum(1 for _ in fh)
    assert lines == (2_000_002 if argv[0] == "seq" else 21 * 20_000 + 1)


def test_closed_pipe_exits_three_quietly():
    with subprocess.Popen([sys.executable, "-m", "beattymatch", "seq", "--to", str(10**7)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"j,floor\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 3
    assert err == b""
