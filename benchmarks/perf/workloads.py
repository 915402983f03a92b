"""The five frozen problem populations.

The one design rule: **what** is solved never depends on ``--seed``.
The same problem re-solves within about 2 %, but neighbouring problems
differ by 10-50x (public/32 GB/6 h: 65 ms, public/33 GB/6 h: 1.1 s), so
a population drawn from the seed measures HiGHS's branch-and-bound luck.
Every list below is a literal; the seed only permutes order, tenant
names, request ids, priorities and which hot spec a cached request asks
for.  ``--seconds`` sets how much of each list one run uses, so the
default ten seconds last about ten seconds at the speed of the commit
that defined the benchmark and the self-test runs the same code on a
twentieth of the population.

A *problem* is a dict of :class:`repro.api.JobSpec` fields; its
``problem_key`` names it in ``reference.json``.
"""

from __future__ import annotations

import random

#: ``--seconds`` at which the populations below are used in full.
FULL_SECONDS = 10.0


def problem(catalog: str, input_gb: float, deadline_hours: float, *,
            uplink_mbit_s: float = 16.0, spot_price: float | None = None,
            constant_nodes: bool = False) -> dict:
    return {
        "catalog": catalog,
        "input_gb": float(input_gb),
        "deadline_hours": float(deadline_hours),
        "uplink_mbit_s": float(uplink_mbit_s),
        "spot_price": spot_price,
        "constant_nodes": constant_nodes,
    }


def problem_key(p: dict) -> str:
    key = f"{p['catalog']}/{p['input_gb']:g}gb/{p['deadline_hours']:g}h"
    if p["uplink_mbit_s"] != 16.0:
        key += f"/up{p['uplink_mbit_s']:.6f}"
    if p["spot_price"] is not None:
        key += f"/sp{p['spot_price']:.4f}"
    if p["constant_nodes"]:
        key += "/const"
    return key


def job_spec(p: dict, name: str = "job"):
    """The :class:`JobSpec` a problem dict declares (hybrid = 5 local nodes)."""
    from repro.api import GoalSpec, JobSpec, NetworkSpec

    return JobSpec(
        name=name,
        input_gb=p["input_gb"],
        goal=GoalSpec(deadline_hours=p["deadline_hours"]),
        network=NetworkSpec(uplink_mbit_s=p["uplink_mbit_s"]),
        catalog=p["catalog"],
        local_nodes=5 if p["catalog"] == "hybrid" else 0,
        spot_price=p["spot_price"],
        constant_nodes=p["constant_nodes"],
    )


def scaled(count: int, seconds: float) -> int:
    """How many of ``count`` frozen items a run of ``seconds`` uses."""
    return max(1, min(count, round(count * seconds / FULL_SECONDS)))


def _cells(catalog: str, cells: str) -> list[dict]:
    """``"6:24 6:28"`` -> problems with deadline 6 h and 24 / 28 GB."""
    out = []
    for cell in cells.split():
        deadline, gb = cell.split(":")
        out.append(problem(catalog, float(gb), float(deadline)))
    return out


def _interleave(*groups: list) -> list:
    """Round-robin merge, so every prefix mixes the groups."""
    out, index = [], 0
    while any(index < len(group) for group in groups):
        out.extend(group[index] for group in groups if index < len(group))
        index += 1
    return out


# ---------------------------------------------------------------------------
# 1. cold_grid — cells of catalog x deadline x input whose cold solve took
# 40 ms - 1.2 s at the defining commit, each a distinct fingerprint.  BODY
# cells (>= 100 ms) run first in seeded order; TAIL cells (< 100 ms) run
# last, so the stretch never ends with one connection idle behind a
# one-second solve on the other.

COLD_BODY = _interleave(
    _cells("public", "4:8 4:12 4:16 4:20 6:8 6:16 8:20 8:24 8:28 8:32 8:40 "
                     "10:24 10:28 10:32 10:40 12:28 12:32 12:48 12:64"),
    _cells("hybrid", "4:12 4:16 4:24 6:32 6:40 6:48 8:32 8:40 8:64 4:20 "
                     "4:28 6:28"),
    _cells("spot", "10:16 12:12 12:16 12:8 8:12 8:16 8:20 10:8 10:20 "
                   "12:20"),
)
COLD_TAIL = _interleave(
    _cells("public", "6:24 6:28 6:32 6:40 8:48"),
    _cells("hybrid", "4:32"),
    _cells("spot", "4:20 6:8 6:12 6:16 10:32 10:40 12:24 12:32"),
)
COLD_LIMIT_MS = 1500.0
#: One per broker shard, solved in set-up so every shard's pool has forked
#: a worker (the same problem four times would be solved once and handed
#: to the other shards by the shared cache).  10 - 20 ms each.
COLD_WARMUPS = (
    problem("spot", 24, 4),
    problem("spot", 28, 4),
    problem("spot", 24, 6),
    problem("spot", 28, 6),
)


def cold_grid(seed: int, seconds: float) -> list[dict]:
    rng = random.Random(seed)
    body = COLD_BODY[: scaled(len(COLD_BODY), seconds)]
    tail = COLD_TAIL[: scaled(len(COLD_TAIL), seconds)]
    rng.shuffle(body)
    rng.shuffle(tail)
    return body + tail


# ---------------------------------------------------------------------------
# 2. replan_drift — eight deployments with eight structural fingerprints;
# each re-plans along a frozen series of uplink (and, on spot, price)
# values within +-2 % (+-10 %) of its base.

DRIFT_DEPLOYMENTS = (
    problem("public", 32, 6),
    problem("public", 40, 8),
    problem("public", 64, 12),
    problem("public", 28, 6, constant_nodes=True),
    problem("hybrid", 32, 6),
    problem("hybrid", 40, 8),
    problem("spot", 32, 10, spot_price=0.2),
    problem("spot", 40, 12, spot_price=0.2),
)
DRIFT_STEPS = 60
DRIFT_LIMIT_MS = 100.0


def _unit_series(stream: int, count: int) -> list[float]:
    """``count`` frozen values in [-1, 1): an integer LCG, so the table is
    the same on every platform and Python version."""
    state = (stream * 2654435761 + 12345) % (1 << 32)
    out = []
    for _ in range(count):
        state = (state * 1664525 + 1013904223) % (1 << 32)
        out.append((state >> 8) / float(1 << 23) - 1.0)
    return out


def drift_series(index: int) -> list[dict]:
    """Deployment ``index``: its base problem, then DRIFT_STEPS re-plans."""
    base = DRIFT_DEPLOYMENTS[index]
    uplinks = _unit_series(2 * index, DRIFT_STEPS)
    prices = _unit_series(2 * index + 1, DRIFT_STEPS)
    series = [base]
    for up, price in zip(uplinks, prices):
        step = dict(base, uplink_mbit_s=round(16.0 * (1.0 + 0.02 * up), 6))
        if base["spot_price"] is not None:
            step["spot_price"] = round(0.2 * (1.0 + 0.10 * price), 4)
        series.append(step)
    keys = [problem_key(p) for p in series]
    if len(set(keys)) != len(keys):
        raise AssertionError(f"drift series {index} repeats a problem")
    return series


def replan_drift(seed: int, seconds: float) -> list[list[tuple[int, dict]]]:
    """For each of two connections, its ``(deployment, problem)`` re-plans
    (the bases in DRIFT_DEPLOYMENTS are solved cold in set-up).  A
    deployment stays on one connection and keeps its order; the seed
    picks which four share a connection and how they interleave."""
    rng = random.Random(seed)
    steps = scaled(DRIFT_STEPS, seconds)
    order = list(range(len(DRIFT_DEPLOYMENTS)))
    rng.shuffle(order)
    per_connection = []
    for members in (order[0::2], order[1::2]):
        slots = [d for d in members for _ in range(steps)]
        rng.shuffle(slots)
        cursors = {d: iter(drift_series(d)[1 : steps + 1]) for d in members}
        per_connection.append([(d, next(cursors[d])) for d in slots])
    return per_connection


# ---------------------------------------------------------------------------
# 3. cached_storm / 4. burst_mix — six hot specs solved in set-up.

HOT_SPECS = (
    problem("public", 32, 6),
    problem("public", 40, 6),
    problem("public", 48, 8),
    problem("hybrid", 32, 4),
    problem("spot", 16, 6),
    problem("spot", 32, 8),
)
PRIORITIES = (0, 1, 1, 2)

STORM_REQUESTS = 60000
STORM_TENANTS = 4096
STORM_WINDOW = 128
STORM_LIMIT_MS = 250.0


def cached_storm(seed: int, seconds: float) -> list[list[tuple[str, int, dict]]]:
    """Two connections' ``(tenant, priority, problem)`` requests."""
    rng = random.Random(seed)
    count = scaled(STORM_REQUESTS, seconds)
    tenants = [f"t{seed:x}-{i:04d}" for i in range(scaled(STORM_TENANTS, seconds))]
    requests = [
        (rng.choice(tenants), rng.choice(PRIORITIES), rng.choice(HOT_SPECS))
        for _ in range(count)
    ]
    return [requests[0::2], requests[1::2]]


BURST_RATE_PER_S = 400
BURST_TENANTS = 2048
BURST_SIZE = 8
BURST_FIRST_S = 1.0
BURST_EVERY_S = 2.5
BURST_SPACING_S = 0.001
BURST_DEADLINE_S = 2.0
BURST_LIMIT_MS = 25.0
#: Never-seen problems, in burst order (tenants ``burst-00`` ... keep their
#: names on every seed, so shard placement is part of the population).
BURST_PROBLEMS = _interleave(
    _cells("public", "8:24 8:28 8:32 8:40 10:24 10:28 10:32 10:40 10:48 "
                     "10:64 12:24 12:28 12:32 12:40 12:48 12:64 6:24 6:28"),
    _cells("spot", "8:8 8:12 8:16 8:20 10:8 10:20 12:20 12:28 12:40 12:48 "
                   "4:8 4:12 4:16 4:20 6:8 6:12 12:16 6:20"),
    _cells("hybrid", "4:28 6:28 4:24")
    + _cells("spot", "8:24 10:16 8:40 8:48 10:24 10:28 10:32 10:40 12:24"),
)


def burst_mix(seed: int, seconds: float) -> list[tuple[float, str, int, dict, bool]]:
    """The open-loop schedule: ``(due_s, tenant, priority, problem, cold)``
    sorted by due time.  Cached requests are evenly spaced; bursts are
    ``BURST_SIZE`` never-seen problems one millisecond apart."""
    rng = random.Random(seed)
    tenants = [f"b{seed:x}-{i:04d}" for i in range(scaled(BURST_TENANTS, seconds))]
    schedule = [
        (i / BURST_RATE_PER_S, rng.choice(tenants), rng.choice(PRIORITIES),
         rng.choice(HOT_SPECS), False)
        for i in range(max(1, int(seconds * BURST_RATE_PER_S)))
    ]
    bursts = 0
    while BURST_FIRST_S + bursts * BURST_EVERY_S < seconds - 1.0:
        bursts += 1
    bursts = max(1, min(bursts, len(BURST_PROBLEMS) // BURST_SIZE))
    first = min(BURST_FIRST_S, seconds / 4.0)
    for burst in range(bursts):
        for slot in range(BURST_SIZE):
            index = burst * BURST_SIZE + slot
            schedule.append((
                first + burst * BURST_EVERY_S + slot * BURST_SPACING_S,
                f"burst-{index:02d}", 1, BURST_PROBLEMS[index], True,
            ))
    schedule.sort(key=lambda item: item[0])
    return schedule


# ---------------------------------------------------------------------------
# 5. fleet_adapt — frozen fleet scenarios (``repro.obs.replay.fleet_inputs``
# dicts).  ``cycle`` scenarios give deployment k the k-th of four input
# sizes; the others keep fleet_inputs' identical specs.

FLEET_CYCLE_GB = (2.0, 4.0, 6.0, 8.0)
FLEET_LIMIT_MS = 2000.0


def _fleet(name: str, deployments: int, trace: str, trace_seed: int,
           start_hour: float, failure_rate: float, cycle: bool) -> dict:
    return {
        "name": name,
        "cycle": cycle,
        "scenario": {
            "deployments": deployments, "trace": trace, "seed": trace_seed,
            "start_hour": float(start_hour), "failure_rate": failure_rate,
            "mode": "event",
        },
    }


#: 0.2 - 0.9 s each at the defining commit; costs, re-plan counts and solver
#: counts repeat exactly.  Identical-spec and cycling scenarios alternate so
#: every prefix holds both.
FLEET_SCENARIOS = tuple(_interleave(
    [
        _fleet("same-aws-08-a", 8, "aws", 11, 37, 0.0, False),
        _fleet("same-aws-08-b", 8, "aws", 14, 50, 0.0, False),
        _fleet("same-aws-16-a", 16, "aws", 23, 50, 0.0, False),
        _fleet("same-aws-08-c", 8, "aws", 9, 24, 0.05, False),
        _fleet("same-aws-16-b", 16, "aws", 19, 24, 0.1, False),
        _fleet("same-el-08-a", 8, "electricity", 43, 50, 0.1, False),
        _fleet("same-el-16-a", 16, "electricity", 44, 24, 0.0, False),
        _fleet("same-el-32-a", 32, "electricity", 53, 24, 0.0, False),
        _fleet("same-el-32-b", 32, "electricity", 55, 24, 0.1, False),
        _fleet("same-el-08-b", 8, "electricity", 36, 24, 0.05, False),
    ],
    [
        _fleet("cycle-el-08-a", 8, "electricity", 37, 24, 0.1, True),
        _fleet("cycle-el-08-b", 8, "electricity", 40, 37, 0.1, True),
        _fleet("cycle-el-16-a", 16, "electricity", 46, 24, 0.1, True),
        _fleet("cycle-el-16-b", 16, "electricity", 49, 37, 0.1, True),
        _fleet("cycle-el-16-c", 16, "electricity", 52, 50, 0.1, True),
        _fleet("cycle-el-32-a", 32, "electricity", 58, 37, 0.1, True),
        _fleet("cycle-el-08-c", 8, "electricity", 38, 37, 0.0, True),
        _fleet("cycle-el-16-d", 16, "electricity", 50, 50, 0.0, True),
        _fleet("cycle-el-32-b", 32, "electricity", 56, 37, 0.0, True),
        _fleet("cycle-el-32-c", 32, "electricity", 59, 50, 0.0, True),
    ],
))


def fleet_adapt(seed: int, seconds: float) -> list[dict]:
    scenarios = list(FLEET_SCENARIOS[: scaled(len(FLEET_SCENARIOS), seconds)])
    random.Random(seed).shuffle(scenarios)
    return scenarios
