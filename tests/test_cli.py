from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from beattymatch import GFib, beta_pow, brute_force_mismatches, make_unit
from beattymatch.cli import main, parse_endpoint


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
