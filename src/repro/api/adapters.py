"""Front-end adapters: compile existing entry points into ``JobSpec``.

The Pig compiler and the service's scenario shorthand both predate the
public API; these adapters turn each of them into the one declarative
vocabulary so that *every* way into the system funnels through
:func:`repro.api.compiler.compile_spec`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .schemas import GoalSpec, JobSpec, NetworkSpec, SchemaError

#: Scenario names the planning-service shorthand understands.
SCENARIOS = ("quickstart", "hybrid", "spot", "pig")

#: Clickstream rollup used by the ``pig`` scenario (examples/pig_pipeline).
PIG_SCRIPT = (
    "clicks = LOAD 'clicks' AS (url:chararray, site:chararray, ms:int);\n"
    "ok     = FILTER clicks BY ms >= 0;\n"
    "bysite = GROUP ok BY site;\n"
    "rollup = FOREACH bysite GENERATE group, COUNT(ok) AS hits;\n"
    "STORE rollup INTO 'hot-sites';\n"
)


def _spec_from_planner_job(
    job,
    *,
    goal: GoalSpec,
    network: NetworkSpec,
    catalog: str = "public",
    local_nodes: int = 0,
    spot_price: float | None = None,
) -> JobSpec:
    return JobSpec(
        name=job.name,
        input_gb=job.input_gb,
        map_output_ratio=job.map_output_ratio,
        reduce_output_ratio=job.reduce_output_ratio,
        throughput_scale=job.throughput_scale,
        reduce_speed_factor=job.reduce_speed_factor,
        goal=goal,
        network=network,
        catalog=catalog,
        local_nodes=local_nodes,
        spot_price=spot_price,
    )


def from_pig(
    script: str,
    *,
    input_gb: float | Mapping[str, float] = 16.0,
    goal: GoalSpec | None = None,
    network: NetworkSpec | None = None,
    catalog: str = "public",
    local_nodes: int = 0,
) -> tuple[JobSpec, ...]:
    """Compile a Pig-Latin script into one ``JobSpec`` per stage.

    ``input_gb`` is either the total input size (split evenly across the
    script's LOADs) or an explicit ``path -> GB`` mapping.  Stage specs
    share the goal/network/catalog; the pipeline planner decides how the
    deadline is apportioned between them.
    """
    from ..pig import compile_script

    pipeline = compile_script(script)
    loads = pipeline.plan.loads
    if isinstance(input_gb, Mapping):
        per_load = dict(input_gb)
    else:
        per_load = {load.path: float(input_gb) / len(loads) for load in loads}
    goal = goal or GoalSpec()
    network = network or NetworkSpec()
    return tuple(
        _spec_from_planner_job(
            job, goal=goal, network=network,
            catalog=catalog, local_nodes=local_nodes,
        )
        for job in pipeline.to_planner_jobs(per_load)
    )


@lru_cache(maxsize=64)
def _pig_stage_specs(
    input_gb: float, deadline_hours: float, uplink_mbit: float
) -> tuple[JobSpec, ...]:
    """Stage specs for the canned Pig pipeline (compiled once per shape)."""
    return from_pig(
        PIG_SCRIPT,
        input_gb=input_gb,
        goal=GoalSpec(deadline_hours=deadline_hours),
        network=NetworkSpec(uplink_mbit_s=uplink_mbit),
    )


def from_workload(
    scenario: str,
    *,
    input_gb: float = 16.0,
    deadline_hours: float = 6.0,
    uplink_mbit: float = 16.0,
    local_nodes: int = 5,
    spot_price: float = 0.2,
    stage: int = 0,
) -> JobSpec:
    """The ``JobSpec`` one scenario-shorthand request stands for.

    This is the adapter behind the synthetic workload generator and any
    client still thinking in scenario names:

    - ``quickstart`` — the paper's public-cloud k-means problem;
    - ``hybrid``     — public cloud plus ``local_nodes`` owned machines;
    - ``spot``       — spot compute with a flat estimated price;
    - ``pig``        — stage ``stage`` of the canned Pig pipeline.
    """
    goal = GoalSpec(deadline_hours=deadline_hours)
    network = NetworkSpec(uplink_mbit_s=uplink_mbit)
    if scenario == "quickstart":
        return JobSpec(name="kmeans", input_gb=input_gb,
                       goal=goal, network=network)
    if scenario == "hybrid":
        return JobSpec(name="kmeans", input_gb=input_gb, goal=goal,
                       network=network, catalog="hybrid",
                       local_nodes=local_nodes)
    if scenario == "spot":
        return JobSpec(name="kmeans", input_gb=input_gb, goal=goal,
                       network=network, catalog="spot", spot_price=spot_price)
    if scenario == "pig":
        specs = _pig_stage_specs(
            float(input_gb), float(deadline_hours), float(uplink_mbit)
        )
        return specs[stage % len(specs)]
    raise SchemaError(
        f"unknown scenario {scenario!r}; pick one of {SCENARIOS}"
    )


__all__ = [
    "PIG_SCRIPT",
    "SCENARIOS",
    "from_pig",
    "from_workload",
]
