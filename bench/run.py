"""Benchmark of the beattymatch package: one workload per process.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --repeat 10 --results runs.jsonl

A single-workload run builds its inputs from the seed, times a closed
loop with one client for ``--seconds`` (whole cycles of the workload's
operation list), checks every output, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from spans recorded
around the package's public functions (see spans.py).  The line before
it is a JSON object ``{"detail": ...}`` with the run environment, the
workload sizes, ``fail_ratio`` and the tail percentile used.

``--workload all`` runs every workload in its own fresh process, one at
a time, prints each metric by name with its unit, and can append every
run to a JSON-lines results file that compare.py reads.
``--negative-control`` corrupts one oracle value or digest, so the run
must report failures and exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Set-up as users pay it: import the package, build the default unit grid
# and a GFib table per unit, in a fresh interpreter per sample.  The probe
# then times the speed kernel, so that its sample can be scaled.
SETUP_PROBE = """
import statistics, sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import beattymatch
grid = beattymatch.default_units()
tables = {u: beattymatch.GFib.build(u) for u in grid}
elapsed = perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(elapsed, statistics.median(speed.calibrate() for _ in range(5)))
"""

# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


# ------------------------------------------------------------ measurement


def setup_samples(count: int) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) from ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, kernel = done.stdout.split()
        samples.append((float(elapsed), float(kernel)))
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above it) for the highest percentile on
    TAIL_LADDER with at least ten samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-round(p * 10) * n // 1000))  # ceil(p/100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


class Loop:
    """Closed loop, one client: whole cycles until the deadline has passed."""

    def __init__(self, wl: workloads.Workload, seed: int) -> None:
        self.wl = wl
        self.rng = random.Random(f"order-{seed}")
        self.times: list[float] = []
        self.kernel: list[float] = []  # speed kernel, timed after each operation
        self.failed = 0
        self.cycles = 0

    def scale(self) -> float:
        """Factor from this run's seconds to reference-speed seconds."""
        return speed.REF_S / statistics.median(self.kernel)

    def cycle(self, run_op) -> float:
        """Run every operation once in a fresh seeded order; return busy time."""
        order = list(self.wl.ops)
        self.rng.shuffle(order)
        busy = 0.0
        for op in order:
            try:
                result, elapsed = run_op(op)
                ok = op.check(result)
            except Exception:  # an operation that raises is a failed operation
                print(f"operation {op.label} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                elapsed, ok = 0.0, False
            self.times.append(elapsed)
            self.kernel.append(speed.calibrate())
            busy += elapsed
            self.failed += not ok
        self.cycles += 1
        return busy


def untraced(op: workloads.Op) -> tuple[object, float]:
    t0 = perf_counter()
    result = op.run()
    return result, perf_counter() - t0


def timing(samples: list[float]) -> dict:
    p, value, above = tail(samples)
    return {
        "ops_per_s": len(samples) / sum(samples),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": value * 1e3,
        "tail": {"percentile": p, "samples": len(samples), "samples_above": above},
    }


def run_plain(loop: Loop, seconds: float) -> tuple[dict, dict]:
    """Timed metrics at reference speed, and the same figures as measured."""
    deadline = perf_counter() + seconds
    while True:
        loop.cycle(untraced)
        if perf_counter() >= deadline:
            break
    scale = loop.scale()
    return timing([t * scale for t in loop.times]), timing(loop.times)


def run_traced(bm, loop: Loop, seconds: float) -> dict:
    """Set-up once and then pairs of cycles, untraced then traced, until the
    deadline; the pairs give the tracing overhead on identical work."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        grid = bm.default_units()
        _tables = {u: bm.GFib.build(u) for u in grid}
    finally:
        tracer.uninstall()
    setup, _ = tracer.take()

    def traced(op: workloads.Op) -> tuple[object, float]:
        return tracer.op(op.run, op.j_window)

    deadline = perf_counter() + seconds
    busy = {"plain": 0.0, "traced": 0.0}
    kernel: dict[str, list[float]] = {"plain": [], "traced": []}

    def phase(name: str, run_op) -> None:
        first = len(loop.kernel)
        busy[name] += loop.cycle(run_op)
        kernel[name] += loop.kernel[first:]

    rounds = 0
    while True:
        state = loop.rng.getstate()
        phase("plain", untraced)
        loop.rng.setstate(state)  # the traced cycle repeats the same order
        tracer.install()
        try:
            phase("traced", traced)
        finally:
            tracer.uninstall()
        rounds += 1
        if perf_counter() >= deadline:
            break
    sums, bits = tracer.take()
    # each phase at reference speed, so load that shifts between them cancels
    overhead = (busy["traced"] / statistics.median(kernel["traced"])) / (
        busy["plain"] / statistics.median(kernel["plain"]))
    return spans.per_layer(setup, sums, bits, rounds, overhead, loop.scale())


def run_one(args: argparse.Namespace) -> int:
    import beattymatch as bm

    samples = setup_samples(SETUP_PROBES)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        t0 = perf_counter()
        wl = workloads.build(args.workload, bm, args.seed, args.negative_control, tmp)
        oracle_s = perf_counter() - t0
        loop = Loop(wl, args.seed)
        t0 = perf_counter()
        if args.trace:
            metrics = run_traced(bm, loop, args.seconds)
            tail_info = raw = None
        else:
            timed, raw = run_plain(loop, args.seconds)
            tail_info = timed.pop("tail")
            setup_s = statistics.median(elapsed * speed.REF_S / kernel for elapsed, kernel in samples)
            metrics = {"setup_s": setup_s, **timed,
                       "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        loop_s = perf_counter() - t0
    attempted = len(loop.times)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "negative_control": args.negative_control,
        "fail_ratio": loop.failed / attempted,
        "cycles": loop.cycles,
        "tail": tail_info,
        "raw": raw,
        "speed_scale": loop.scale(),
        "setup_samples_s": samples,
        "oracle_s": oracle_s,
        "loop_s": loop_s,
        "sizes": wl.sizes,
        "env": environment(),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end" if not args.trace else "per_layer"]}
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if loop.failed == 0 else 1


# ------------------------------------------------------------ all workloads


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, one at a time."""
    results = open(args.results, "a", encoding="utf-8") if args.results else None
    bad = 0
    try:
        for seed in range(args.seed, args.seed + args.repeat):
            for name in workloads.WORKLOADS:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                if args.negative_control:
                    cmd.append("--negative-control")
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                if len(lines) < 2:
                    sys.stderr.write(done.stderr)
                    print(f"{name} seed={seed}: no result (exit {done.returncode})")
                    bad += 1
                    continue
                detail = json.loads(lines[-2])["detail"]
                record = {**json.loads(lines[-1]), "detail": detail}
                bad += done.returncode != 0 or not record["correct"]
                _print_record(record, done.returncode)
                if results:
                    results.write(json.dumps(record, sort_keys=True) + "\n")
                    results.flush()
    finally:
        if results:
            results.close()
    return 1 if bad else 0


def _print_record(record: dict, code: int) -> None:
    d = record["detail"]
    print(f"{d['workload']}  seed={d['seed']}  trace={d['trace']}  exit={code}  "
          f"correct={record['correct']}  attempted={record['attempted']}  failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<42} {d['fail_ratio']:>14.6g} ratio")
    if d["tail"]:
        t = d["tail"]
        print(f"  latency_tail_ms is p{t['percentile']:g} of {t['samples']} samples "
              f"({t['samples_above']} above)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt one oracle value or digest; the run must fail")
    parser.add_argument("--repeat", type=int, default=1, help="with --workload all: seeds seed..seed+repeat-1")
    parser.add_argument("--results", default=None, help="with --workload all: append each run to this JSON-lines file")
    args = parser.parse_args()
    if not (SRC / "beattymatch" / "__init__.py").is_file():
        print(f"error: no beattymatch package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
