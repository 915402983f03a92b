"""Synthetic workload generator."""

import pytest

from repro.service import (
    SCENARIOS,
    generate_workload,
    problem_for_scenario,
)


class TestScenarios:
    def test_every_scenario_builds_a_problem(self):
        for scenario in SCENARIOS:
            problem = problem_for_scenario(scenario, input_gb=8.0,
                                           deadline_hours=6.0)
            assert problem.job.input_gb > 0
            assert problem.goal.deadline_hours == 6.0
            assert any(s.can_compute for s in problem.services)

    def test_spot_scenario_carries_estimates(self):
        problem = problem_for_scenario("spot", deadline_hours=8.0, spot_price=0.21)
        spot_names = {s.name for s in problem.services if s.is_spot}
        assert spot_names
        assert set(problem.spot_price_estimates) == spot_names
        series = next(iter(problem.spot_price_estimates.values()))
        assert len(series) == 8 and series[0] == 0.21

    def test_hybrid_scenario_includes_local_provider(self):
        problem = problem_for_scenario("hybrid", local_nodes=3)
        local = [s for s in problem.services if s.provider == "local"]
        assert len(local) == 1 and local[0].max_nodes == 3

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            problem_for_scenario("teleport")


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = generate_workload(tenants=4, requests=12, seed=7)
        b = generate_workload(tenants=4, requests=12, seed=7)
        assert len(a) == len(b) == 12
        for x, y in zip(a, b):
            assert x.tenant == y.tenant
            assert x.priority == y.priority
            assert x.problem.canonical() == y.problem.canonical()

    def test_different_seed_differs(self):
        a = generate_workload(tenants=4, requests=12, seed=0)
        b = generate_workload(tenants=4, requests=12, seed=1)
        assert any(
            x.problem.canonical() != y.problem.canonical() for x, y in zip(a, b)
        )

    def test_tenants_and_counts(self):
        requests = generate_workload(tenants=3, requests=30, seed=2)
        tenants = {r.tenant for r in requests}
        assert tenants <= {f"tenant-{i}" for i in range(3)}
        assert len(tenants) > 1

    def test_repeats_exist_for_cacheability(self):
        """The grids are small on purpose: a longer stream must contain
        duplicate problems, or the plan cache could never hit."""
        from repro.service import problem_fingerprint

        requests = generate_workload(tenants=8, requests=64, seed=0)
        fingerprints = [problem_fingerprint(r.problem) for r in requests]
        assert len(set(fingerprints)) < len(fingerprints)

    def test_workload_respects_feasibility_guard(self):
        for request in generate_workload(tenants=8, requests=40, seed=3):
            problem = request.problem
            upload_hours = (
                problem.job.input_gb / problem.network.uplink_gb_per_hour
            )
            assert upload_hours < problem.goal.deadline_hours

    def test_custom_mix_validated(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            generate_workload(requests=1, mix={"warp": 1.0})
        only_quickstart = generate_workload(
            requests=10, mix={"quickstart": 1.0}, seed=0
        )
        assert all(
            not any(s.is_spot for s in r.problem.services)
            for r in only_quickstart
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_workload(tenants=0)
