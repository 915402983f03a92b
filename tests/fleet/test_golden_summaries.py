"""The ``fleet_adapt`` benchmark's 20 fleet summaries, pinned.

Each scenario is rebuilt exactly as the benchmark builds it
(``benchmarks/perf/workloads.py`` ``FLEET_SCENARIOS``, through
``benchmarks/perf/fleet_run.py`` ``build``) and run through
``Orchestrator.fleet``.  Its :func:`~repro.fleet.fleet_summary` (costs,
completion hours, re-plans, solves, plan-cache hits) must equal the one
in ``golden_fleet_summaries.json``, float for float.  A change that is
meant to move a summary regenerates the file from the new code and says
why in its description.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.api import Orchestrator
from repro.fleet import fleet_summary

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fleet_summaries.json")).read_text()
)

sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))
try:
    import fleet_run
    import workloads
finally:
    sys.path.remove(str(ROOT / "benchmarks" / "perf"))

SCENARIOS = {entry["name"]: entry for entry in workloads.FLEET_SCENARIOS}


def test_the_golden_holds_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)
    assert sum(s["solves"] for s in GOLDEN.values()) == 201
    assert sum(s["cache_hits"] for s in GOLDEN.values()) == 1327


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fleet_summary_matches_the_golden(name):
    specs, substrate, config, predictor = fleet_run.build(SCENARIOS[name])
    result = Orchestrator().fleet(
        specs, substrate, fleet_config=config, predictor=predictor
    )
    assert fleet_summary(result) == GOLDEN[name]
