#!/usr/bin/env python3
"""Perf-smoke gate: read a ``--bench-json`` report and enforce floors.

The benchmark conftest writes one JSON record per benchmark (wall
seconds plus any metrics the bench reported through ``bench_metrics``).
This script is the CI side of that contract: it fails when

1. any recorded benchmark did not pass, or
2. any ``warm_speedup`` metric falls below ``--min-warm-speedup``
   (default 3x) — the incremental re-solve hot path must stay
   meaningfully faster than cold solving, or
3. no ``warm_speedup`` metric exists at all (the gate silently
   checking nothing is itself a failure).

Where a bench reported them, the model-build layer is printed beside
the speedups — ``build_ms`` (first builds of each shape, summed over
the Fig. 16 grid) and ``rebuild_ms`` (second builds of the same shapes)
— and so are the cold side of a speedup, ``cold_nodes`` (branch & bound
nodes over the Fig. 16 grid's or the Fig. 9 sweep's cold solves) with,
where reported, ``solve_s`` (those solves' seconds), the share of re-plans
answered warm, ``warm_rate``, and the three warm-cache request paths of
``bench_api_overhead`` (``direct_us`` / ``facade_us`` / ``wire_us``,
under ``ordered_admission``), as information: no floor applies to them.
A speedup is a ratio, so a faster cold solve lowers it too.

Usage::

    python tools/check_perf.py bench.json --min-warm-speedup 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="JSON from --bench-json")
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=3.0,
        help="floor for every reported warm_speedup metric (default: 3)",
    )
    args = parser.parse_args(argv)

    payload = json.loads(args.report.read_text(encoding="utf-8"))
    problems: list[str] = []
    speedups: list[tuple[str, float, str]] = []

    for bench in payload.get("benchmarks", []):
        name = bench.get("name", "<unnamed>")
        outcome = bench.get("outcome")
        if outcome not in (None, "passed"):
            problems.append(f"{name}: outcome {outcome!r}")
        metrics = bench.get("metrics", {})
        speedup = metrics.get("warm_speedup")
        if speedup is not None:
            rate = metrics.get("warm_rate")
            aside = "" if rate is None else f", warm_rate {rate:.2f}"
            speedups.append((name, float(speedup), aside))
        if "build_ms" in metrics and "rebuild_ms" in metrics:
            print(f"{name}: build_ms {metrics['build_ms']:.1f}, "
                  f"rebuild_ms {metrics['rebuild_ms']:.2f}")
        if "cold_nodes" in metrics:
            solve_s = metrics.get("solve_s")
            aside = "" if solve_s is None else f", solve_s {solve_s:.1f}"
            print(f"{name}: cold_nodes {metrics['cold_nodes']:.0f}{aside}")
        if all(key in metrics for key in ("direct_us", "facade_us", "wire_us")):
            print(f"{name}: direct_us {metrics['direct_us']:.1f}, "
                  f"facade_us {metrics['facade_us']:.1f}, "
                  f"wire_us {metrics['wire_us']:.1f}")

    if not speedups:
        problems.append("no benchmark reported a warm_speedup metric")
    for name, speedup, aside in speedups:
        status = "ok" if speedup >= args.min_warm_speedup else "TOO SLOW"
        print(f"{name}: warm_speedup {speedup:.2f}x "
              f"(floor {args.min_warm_speedup:.1f}x) {status}{aside}")
        if speedup < args.min_warm_speedup:
            problems.append(
                f"{name}: warm_speedup {speedup:.2f}x "
                f"< {args.min_warm_speedup:.1f}x"
            )

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
