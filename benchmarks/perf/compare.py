#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 benchmarks/perf/compare.py --collect A.json --seeds 1,2,3,4,5
    python3 benchmarks/perf/compare.py A.json B.json

A set holds its seeds, its seconds and, per workload, the JSON line of
each run: every declared workload at the declared ``run_seconds``.  Two
sets are compared only when their seeds and seconds are the same.

The comparison prints one row per workload x end-to-end metric with both
medians, the row's bound and a verdict:

- ``same``   — B's median is within the bound of A's;
- ``worse``  — B's median is worse than A's by more than the bound;
- ``better`` — B's median is better by more than the bound, or every run
  of B reads better than every run of A;
- ``unresolved`` — the spread between a side's own runs (the distance
  between its quartiles, as a share of its median) exceeds the bound, so
  the medians cannot settle it.

Exits 1 when any row is ``worse``.

``BENCHMARK.json`` holds one bound per metric, and the driver that reads
it wants every workload's ten-seed spread inside that bound, so there the
noisiest workload on a noisy machine sets it (0.25 for the timings).  A
row here is judged by the tighter of that and ``TIGHT_BOUNDS``, so a
workload cannot slow by 24 % and read ``same``: a row whose own runs
spread wider than its bound reads ``unresolved`` instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 180.0

#: Twice the spread of five same-seed runs at the defining commit, floored
#: at 3 % and capped at 10 %.  Every timing metric came to 8 - 10 % or hit
#: the cap on every workload (the README has the measurements), so one
#: number per metric says it; a metric not listed keeps BENCHMARK.json's.
TIGHT_BOUNDS = {
    "setup_s": 0.10,
    "throughput_ops_s": 0.10,
    "latency_p50_ms": 0.10,
    "cpu_ms_per_op": 0.10,
    "within_limit_share": 0.03,
    "peak_rss_mb": 0.03,
}


def collect(path: Path, seeds: list[int], declared: dict) -> int:
    seconds = declared["run_seconds"]
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs[workload] = []
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}: "
                      f"{done.stderr.strip()[-200:]}", file=sys.stderr)
                return 2
            record = json.loads(done.stdout.strip().splitlines()[-1])
            runs[workload].append(record)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.5g}"
                for name, metric in record["metrics"].items()), file=sys.stderr)
    path.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "runs": runs},
                               indent=1) + "\n", encoding="utf-8")
    return 0


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], bound: float, higher_is_better: bool) -> str:
    sign = -1.0 if higher_is_better else 1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if max(spread(a), spread(b)) > bound:
        if all_better:
            return "better"
        if all_worse and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or all_better:
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path, declared: dict) -> int:
    side_a = json.loads(path_a.read_text(encoding="utf-8"))
    side_b = json.loads(path_b.read_text(encoding="utf-8"))
    for key in ("seeds", "seconds"):
        if side_a[key] != side_b[key]:
            print(f"the sets differ in {key}: {side_a[key]} and {side_b[key]}",
                  file=sys.stderr)
            return 2
    print(f"{'workload':14s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread A':>8s} {'spread B':>8s}  verdict")
    worse = 0
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name = metric["name"]
            bound = min(metric["bound"], TIGHT_BOUNDS.get(name, metric["bound"]))
            a = [run["metrics"][name]["value"] for run in side_a["runs"][workload]]
            b = [run["metrics"][name]["value"] for run in side_b["runs"][workload]]
            result = verdict(a, b, bound, metric["better"] == "higher")
            worse += result == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            print(f"{workload:14s} {name:20s} {med_a:12.5g} {med_b:12.5g} "
                  f"{change:+8.3f} {bound:6.2f} {spread(a):8.3f} "
                  f"{spread(b):8.3f}  {result}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="*", type=Path, metavar="SET.json")
    parser.add_argument("--collect", type=Path, metavar="OUT.json",
                        help="run every workload once per seed and write a set")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.collect is not None:
        return collect(args.collect, [int(s) for s in args.seeds.split(",")], declared)
    if len(args.sets) != 2:
        parser.error("give two sets to compare, or --collect OUT.json")
    return compare(args.sets[0], args.sets[1], declared)


if __name__ == "__main__":
    sys.exit(main())
