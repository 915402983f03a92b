"""Asyncio load generator for the socket frontend.

``repro loadgen --connect`` drives a running ``repro serve --listen``
frontend with thousands of *concurrent* tenant connections — one TCP
connection per tenant, pipelined requests, responses correlated by
``request_id`` — and reports client-observed latency percentiles, the
shed rate and the per-address split.  Connections route tenants across
multiple server addresses with a stable hash (:func:`shard_for_tenant`),
so a multi-process deployment (one frontend per address) keeps each
tenant pinned to one process, and with it the tenant's FIFO order.

Single event loop, single process: at 10k tenants the per-connection
state is a reader/writer pair and a dict of send timestamps, well
within one loop's capacity, and client-side CPU stays out of the
measurement's way because requests draw from a small spec grid the
server answers mostly from its plan cache.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass, field

from ...api import ErrorV1, PlanRequestV1, PlanResponseV1, decode, encode
from ...api.adapters import from_workload
from ...obs.registry import percentile

__all__ = [
    "LoadgenReport",
    "generate_wire_workload",
    "run_loadgen",
    "shard_for_tenant",
]

#: Spec grids mirroring ``repro.service.workload`` — small on purpose
#: (real planning traffic repeats; the plan cache is the product).
_SCENARIO_MIX = (("quickstart", 0.4), ("hybrid", 0.25),
                 ("spot", 0.2), ("pig", 0.15))
_INPUT_GRID = (8.0, 16.0, 32.0)
_DEADLINE_GRID = (6.0, 8.0)
_UPLINK_GRID = (32.0,)


def shard_for_tenant(tenant: str, shards: int) -> int:
    """Stable tenant -> index in ``range(shards)``.

    blake2b (not ``hash``, which is salted per process) so every client
    process and every run agrees on which address serves a tenant.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    digest = hashlib.blake2b(tenant.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def generate_wire_workload(
    tenants: int,
    requests_per_tenant: int = 1,
    *,
    seed: int = 0,
    distinct: int = 8,
    deadline_s: float | None = None,
    priority_choices: tuple[int, ...] = (0, 1, 1, 2),
) -> list[tuple[str, list[PlanRequestV1]]]:
    """A deterministic wire workload: ``tenants`` named tenants, each
    with ``requests_per_tenant`` requests drawn from ``distinct`` specs.

    ``request_id`` is ``{tenant}/{index}`` so responses correlate even
    when they arrive out of submission order.
    """
    if tenants <= 0 or requests_per_tenant <= 0:
        raise ValueError("tenants and requests_per_tenant must be positive")
    if distinct <= 0:
        raise ValueError("distinct must be positive")
    rng = random.Random(seed)
    names = [name for name, _ in _SCENARIO_MIX]
    weights = [weight for _, weight in _SCENARIO_MIX]
    specs = []
    for stage in range(distinct):
        specs.append(from_workload(
            rng.choices(names, weights=weights)[0],
            input_gb=rng.choice(_INPUT_GRID),
            deadline_hours=rng.choice(_DEADLINE_GRID),
            uplink_mbit=rng.choice(_UPLINK_GRID),
            stage=stage,
        ))
    workload = []
    for index in range(tenants):
        tenant = f"tenant-{index:05d}"
        requests = [
            PlanRequestV1(
                job=rng.choice(specs),
                tenant=tenant,
                priority=rng.choice(priority_choices),
                deadline_s=deadline_s,
                request_id=f"{tenant}/{sequence}",
            )
            for sequence in range(requests_per_tenant)
        ]
        workload.append((tenant, requests))
    return workload


@dataclass
class LoadgenReport:
    """Client-side view of one loadgen run."""

    sent: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    rejected: int = 0
    expired: int = 0
    #: Connections that never established (after retries).
    connect_failures: int = 0
    #: Requests whose response never arrived (disconnect/timeout).
    lost: int = 0
    #: Client-observed request latencies, seconds (send -> response).
    latencies_s: list[float] = field(default_factory=list)
    #: address -> responses received through it.
    per_address: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def answered(self) -> int:
        return self.completed + self.failed + self.rejected + self.expired

    @property
    def shed_rate(self) -> float:
        return self.rejected / self.sent if self.sent else 0.0

    def percentile_s(self, p: float) -> float:
        return percentile(self.latencies_s, p)

    def snapshot(self) -> dict:
        return {
            "sent": self.sent,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "connect_failures": self.connect_failures,
            "lost": self.lost,
            "shed_rate": self.shed_rate,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": (
                self.answered / self.elapsed_s if self.elapsed_s else 0.0
            ),
            "latency": {
                "p50_s": self.percentile_s(50),
                "p95_s": self.percentile_s(95),
                "p99_s": self.percentile_s(99),
            },
            "per_address": dict(sorted(self.per_address.items())),
        }

    def describe(self) -> str:
        snap = self.snapshot()
        lines = [
            f"requests:    {self.sent} sent, {self.completed} completed "
            f"({self.cached} cached), {self.failed} failed, "
            f"{self.rejected} rejected, {self.expired} expired, "
            f"{self.lost} lost",
            f"shedding:    {self.shed_rate:.2%} shed at admission, "
            f"{self.connect_failures} connect failures",
            f"latency:     p50 {snap['latency']['p50_s'] * 1e3:8.1f} ms   "
            f"p95 {snap['latency']['p95_s'] * 1e3:8.1f} ms   "
            f"p99 {snap['latency']['p99_s'] * 1e3:8.1f} ms",
            f"throughput:  {snap['throughput_rps']:.1f} responses/s "
            f"({self.elapsed_s:.2f} s wall)",
        ]
        for address, count in snap["per_address"].items():
            lines.append(f"  {address}: {count} responses")
        return "\n".join(lines)


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


async def run_loadgen(
    addresses: list[str],
    workload: list[tuple[str, list[PlanRequestV1]]],
    *,
    connect_concurrency: int = 512,
    connect_retries: int = 5,
    connect_timeout_s: float = 5.0,
    response_timeout_s: float = 120.0,
) -> LoadgenReport:
    """Drive the frontend(s) with one connection per workload tenant.

    Every tenant connects (paced by ``connect_concurrency``, retried on
    transient refusals), reads the ``hello``, then *all* tenants start
    sending together — the barrier is what makes "N concurrent tenants"
    mean N simultaneously-connected clients, not a connect/close churn.
    """
    if not addresses:
        raise ValueError("at least one address required")
    targets = [parse_address(address) for address in addresses]
    report = LoadgenReport()
    report_lock = asyncio.Lock()
    connect_gate = asyncio.Semaphore(connect_concurrency)
    barrier = asyncio.Barrier(len(workload))

    async def session(tenant: str, requests: list[PlanRequestV1]) -> None:
        index = shard_for_tenant(tenant, len(targets))
        host, port = targets[index]
        label = addresses[index]
        reader = writer = None
        async with connect_gate:
            for attempt in range(connect_retries):
                try:
                    # The per-attempt timeout bounds TCP SYN retransmit
                    # when a storm overflows the server's accept queue —
                    # an unbounded connect can stall for minutes, and
                    # every tenant behind the start barrier with it.
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port),
                        connect_timeout_s,
                    )
                    break
                except (OSError, asyncio.TimeoutError):
                    await asyncio.sleep(0.05 * (attempt + 1))
        if writer is None:
            async with report_lock:
                report.connect_failures += 1
                report.lost += len(requests)
            await barrier.wait()
            return
        try:
            await reader.readline()  # hello preamble
            await barrier.wait()
            pending: dict[str, float] = {}
            for request in requests:
                writer.write(encode(request).encode("utf-8") + b"\n")
                pending[request.request_id] = time.perf_counter()
            await writer.drain()
            sent = len(requests)
            answered: list[tuple[PlanResponseV1, float]] = []
            bad = 0
            while pending:
                try:
                    raw = await asyncio.wait_for(
                        reader.readline(), response_timeout_s
                    )
                except (asyncio.TimeoutError, ConnectionResetError):
                    break
                if not raw:
                    break
                message = decode(raw.decode("utf-8"))
                if isinstance(message, ErrorV1):
                    bad += 1
                    if len(pending) == bad:
                        break
                    continue
                started = pending.pop(message.request_id, None)
                if started is None:
                    continue
                answered.append((message, time.perf_counter() - started))
            async with report_lock:
                report.sent += sent
                # Requests answered by a bare error line stay in
                # ``pending`` (no request_id to match) — counted once.
                report.lost += len(pending)
                report.per_address[label] = (
                    report.per_address.get(label, 0) + len(answered)
                )
                for response, latency in answered:
                    report.latencies_s.append(latency)
                    if response.status == "completed":
                        report.completed += 1
                        report.cached += 1 if response.cached else 0
                    elif response.status == "rejected":
                        report.rejected += 1
                    elif response.status == "expired":
                        report.expired += 1
                    else:
                        report.failed += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    start = time.perf_counter()
    await asyncio.gather(
        *(session(tenant, requests) for tenant, requests in workload)
    )
    report.elapsed_s = time.perf_counter() - start
    return report
