"""The adaptive fleet runtime: many deployments, one cloud, live re-plans.

Conductor's headline claim (paper Figs. 12-14) is *adaptation* —
deployments re-plan mid-flight when spot prices spike, instances are
reclaimed, nodes fail, or predictions deviate.  This package is the
layer that makes adaptation a fleet-level property rather than a
per-job one:

- :class:`~repro.fleet.substrate.Substrate` — one simulated cloud shared
  by every deployment: the spot market (price traces), a deterministic
  :class:`~repro.fleet.substrate.FailureInjector`, and per-service
  capacity limits.  It narrates each hour as typed events
  (:class:`~repro.fleet.events.PriceSpike`,
  :class:`~repro.fleet.events.SpotEviction`,
  :class:`~repro.fleet.events.NodeFailure`,
  :class:`~repro.fleet.events.CapacityChange`).
- :class:`~repro.fleet.scheduler.FleetScheduler` — steps N concurrent
  deployments in lockstep over the substrate and turns each event into
  targeted re-plan requests for exactly the deployments it concerns,
  under per-deployment re-plan budgets
  (:class:`~repro.fleet.scheduler.FleetConfig`).
- :class:`~repro.fleet.replanner.CachingPlanner` — one plan cache (the
  planning service's LRU, keyed on the problem's canonical tuple) in
  front of the cold ``Planner.plan``, so N identical re-plans provoked
  by one shared event coalesce into a single solve;
  :class:`~repro.fleet.replanner.SharedPredictor` likewise asks the spot
  predictor each ``(trace, hour, horizon)`` question once per fleet.

Quickstart::

    from repro.cloud.traces import electricity_like_trace
    from repro.core import Goal, PlannerJob, WindowMaxPredictor
    from repro.core.spot_sim import spot_services
    from repro.fleet import FleetConfig, FleetScheduler, Substrate

    trace = electricity_like_trace(days=8, seed=7)
    substrate = Substrate({"ec2.m1.large.spot": trace},
                          eviction_bids={"ec2.m1.large.spot": 0.34})
    fleet = FleetScheduler(substrate, FleetConfig(mode="event"))
    for i in range(8):
        fleet.add(f"tenant-{i}", PlannerJob(name="kmeans", input_gb=4.0),
                  spot_services(), Goal.min_cost(deadline_hours=12.0),
                  predictor=WindowMaxPredictor(5))
    result = fleet.run()
    print(result.describe())

The same run is available as ``python -m repro fleet`` (streaming each
interval and re-plan as versioned ``deploy_event`` JSON lines) and is
benchmarked against fixed-interval re-planning in
``benchmarks/bench_fleet_adaptation.py``.  The trigger taxonomy the
events map onto, and the narrative documentation, are in
``docs/adaptation.md``.
"""

from .events import (
    CapacityChange,
    NodeFailure,
    PriceSpike,
    SpotEviction,
    SubstrateEvent,
)
from .replanner import CachingPlanner
from .scheduler import (
    MODES,
    FleetConfig,
    FleetDeployment,
    FleetDeploymentSummary,
    FleetResult,
    FleetScheduler,
    fleet_summary,
)
from .substrate import FailureInjector, FailureSpec, Substrate

__all__ = [
    "CachingPlanner",
    "CapacityChange",
    "FailureInjector",
    "FailureSpec",
    "FleetConfig",
    "FleetDeployment",
    "FleetDeploymentSummary",
    "FleetResult",
    "FleetScheduler",
    "MODES",
    "NodeFailure",
    "PriceSpike",
    "SpotEviction",
    "Substrate",
    "SubstrateEvent",
    "fleet_summary",
]
