"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds runs as ``run.py --workload all --results FILE`` writes
them (untraced runs are compared; traced ones are skipped).  A row shows
each side's median and quartiles over its runs and a verdict, with the
bounds of BENCHMARK.json:

- ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, and the runs do not separate (not
  every new run is better, or worse, than every base run);
- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``better``: runs paired by seed favour the new side in at least nine
  tenths of the pairs, and the medians differ by more than the base
  side's quartile spread;
- ``within``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): {seed: value}} for the untraced runs in a file."""
    runs: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            detail = record["detail"]
            if detail["trace"] or detail.get("negative_control"):
                continue
            for name, metric in record["metrics"].items():
                runs[detail["workload"], name][detail["seed"]] = metric["value"]
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 means worse
    b_q1, b_med, b_q3 = summary(list(base.values()))
    n_q1, n_med, n_q3 = summary(list(new.values()))
    all_better = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    all_worse = all(sign * (n - b) > 0 for n in new.values() for b in base.values())
    if (b_q3 - b_q1) > bound * abs(b_med) or (n_q3 - n_q1) > bound * abs(n_med):
        if all_better:
            return "better"
        return "worse" if all_worse else "unresolved"
    if sign * (n_med - b_med) > bound * abs(b_med):
        return "worse"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > (b_q3 - b_q1):
        return "better"
    return "within"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<14} {'metric':<16} {'unit':<5} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'bound':>6}  verdict")
    worse = 0
    for w in workloads:
        for metric in spec["end_to_end"]:
            key = (w, metric["name"])
            if key not in base or key not in new:
                continue
            cells = []
            for side in (base[key], new[key]):
                q1, med, q3 = summary(list(side.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}")
            v = verdict(base[key], new[key], metric["better"], metric["bound"])
            worse += v == "worse"
            print(f"{w:<14} {metric['name']:<16} {metric['unit']:<5} {cells[0]:>32} {cells[1]:>32} "
                  f"{metric['bound']:>6.2f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
