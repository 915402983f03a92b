#!/usr/bin/env python3
"""Frontend smoke gate: boot the socket frontend, storm it with the
loadgen, and enforce accountability and latency floors.

The script owns the whole lifecycle so CI needs one command:

1. start ``repro serve --listen 127.0.0.1:0`` as a subprocess and parse
   the bound address from its ``listening on HOST:PORT`` ready line;
2. drive it with ``tenants`` concurrent tenant connections (in-process
   :func:`repro.service.frontend.run_loadgen`, same code path as
   ``repro loadgen --connect``);
3. gate the run: every request answered (zero lost, zero connect
   failures), shed rate below ``--max-shed-rate`` and client-observed
   p99 below ``--max-p99-s``;
4. write the loadgen snapshot to ``--metrics-json`` for the CI artifact
   and SIGTERM the server.

Exit status 0 when every gate holds, 1 otherwise (one line per
problem).

Usage::

    python tools/check_loadgen.py --tenants 1000 \
        --metrics-json loadgen-metrics.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READY = re.compile(r"listening on ([\d.]+):(\d+)")


def start_server(max_pending_total: int) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", "127.0.0.1:0",
         "--pool", "thread", "--workers", "2",
         "--max-pending-total", str(max_pending_total),
         "--max-pending-per-tenant", "64"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = server.stderr.readline()
    match = READY.search(line)
    if not match:
        server.kill()
        raise RuntimeError(f"server never became ready: {line!r}")
    # Keep draining stderr — a full pipe would block the server's loop.
    threading.Thread(target=server.stderr.read, daemon=True).start()
    return server, f"{match.group(1)}:{match.group(2)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=1000)
    parser.add_argument("--requests-per-tenant", type=int, default=1)
    parser.add_argument("--distinct", type=int, default=6,
                        help="distinct problem specs (small = cache-heavy)")
    parser.add_argument("--max-shed-rate", type=float, default=0.05,
                        help="ceiling on rejected/sent (default: 5%%)")
    parser.add_argument("--max-p99-s", type=float, default=30.0,
                        help="ceiling on client-observed p99 latency")
    parser.add_argument("--metrics-json", type=Path, default=None,
                        help="write the loadgen snapshot here (CI artifact)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.frontend import generate_wire_workload, run_loadgen

    total = args.tenants * args.requests_per_tenant
    server, address = start_server(max_pending_total=max(4096, 2 * total))
    try:
        workload = generate_wire_workload(
            args.tenants, args.requests_per_tenant,
            seed=0, distinct=args.distinct,
        )
        report = asyncio.run(run_loadgen([address], workload))
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()

    print(report.describe())
    if args.metrics_json is not None:
        args.metrics_json.write_text(
            json.dumps(report.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"metrics written to {args.metrics_json}")

    p99 = report.percentile_s(99)
    problems: list[str] = []
    if report.sent != total:
        problems.append(f"sent {report.sent} != expected {total}")
    if report.connect_failures:
        problems.append(f"{report.connect_failures} connections never established")
    if report.lost:
        problems.append(f"{report.lost} requests got no response")
    if report.answered != report.sent:
        problems.append(f"answered {report.answered} != sent {report.sent}")
    if report.shed_rate > args.max_shed_rate:
        problems.append(
            f"shed rate {report.shed_rate:.2%} > {args.max_shed_rate:.2%}"
        )
    if p99 > args.max_p99_s:
        problems.append(f"p99 {p99:.2f}s > {args.max_p99_s:.2f}s")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
