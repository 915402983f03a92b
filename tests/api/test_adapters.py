"""Front-end adapters: pig / scenario shorthand -> JobSpec."""

import pytest

from repro.api import (
    GoalSpec,
    JobSpec,
    NetworkSpec,
    SchemaError,
    compile_spec,
    from_pig,
    from_workload,
)

PIG_SCRIPT = (
    "a = LOAD 'clicks' AS (url:chararray, site:chararray, ms:int);\n"
    "g = GROUP a BY site;\n"
    "c = FOREACH g GENERATE group, COUNT(a) AS hits;\n"
    "STORE c INTO 'out';\n"
)


class TestFromPig:
    def test_one_spec_per_stage(self):
        specs = from_pig(PIG_SCRIPT, input_gb=8.0,
                         goal=GoalSpec(deadline_hours=6.0))
        assert len(specs) == 1
        spec = specs[0]
        assert isinstance(spec, JobSpec)
        assert spec.input_gb == pytest.approx(8.0)
        assert spec.goal.deadline_hours == 6.0
        assert spec.map_output_ratio > 0
        assert 0 < spec.reduce_output_ratio < 1

    def test_explicit_load_sizes(self):
        specs = from_pig(PIG_SCRIPT, input_gb={"clicks": 4.0})
        assert specs[0].input_gb == pytest.approx(4.0)

    def test_specs_compile(self):
        for spec in from_pig(PIG_SCRIPT, input_gb=8.0):
            problem = compile_spec(spec)
            assert problem.job.input_gb > 0


class TestFromWorkload:
    def test_quickstart_matches_legacy_scenario_problem(self):
        """The adapter + compiler reproduce the service's old scenario
        problems exactly (same fingerprint => same cache entries)."""
        from repro.service import problem_fingerprint, problem_for_scenario

        for scenario in ("quickstart", "hybrid", "spot", "pig"):
            spec = from_workload(scenario, input_gb=8.0, deadline_hours=6.0)
            compiled = compile_spec(spec)
            legacy = problem_for_scenario(
                scenario, input_gb=8.0, deadline_hours=6.0
            )
            assert problem_fingerprint(compiled) == problem_fingerprint(legacy)

    def test_spot_carries_estimates(self):
        problem = compile_spec(
            from_workload("spot", deadline_hours=8.0, spot_price=0.21)
        )
        spot_names = {s.name for s in problem.services if s.is_spot}
        assert set(problem.spot_price_estimates) == spot_names
        series = next(iter(problem.spot_price_estimates.values()))
        assert len(series) == 8 and series[0] == 0.21

    def test_hybrid_local_nodes(self):
        spec = from_workload("hybrid", local_nodes=3)
        assert spec.catalog == "hybrid"
        problem = compile_spec(spec)
        local = [s for s in problem.services if s.provider == "local"]
        assert len(local) == 1 and local[0].max_nodes == 3

    def test_pig_stage_selection(self):
        first = from_workload("pig", input_gb=8.0, stage=0)
        assert first.name.startswith("stage")

    def test_unknown_scenario_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="unknown scenario"):
            from_workload("teleport")


class TestNetworkDefaults:
    def test_workload_spec_uses_requested_uplink(self):
        spec = from_workload("quickstart", uplink_mbit=32.0)
        assert spec.network == NetworkSpec(uplink_mbit_s=32.0)
