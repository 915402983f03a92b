"""Tests for multi-stage pipeline planning and failure-injected execution."""

import numpy as np
import pytest

from repro.cloud import public_cloud
from repro.core import (
    Goal,
    NetworkConditions,
    PlannerJob,
    RetentionPolicy,
    StorageTier,
    estimate_run_distribution,
    plan_pipeline,
    run_pipeline_with_failures,
)
from repro.pig import compile_script

NETWORK = NetworkConditions.from_mbit_s(16.0)

CHEAP = StorageTier("ec2-disk", 1e-4, loss_per_hour=0.02)
DURABLE = StorageTier("s3", 3e-4, loss_per_hour=0.0)


def two_stage_jobs(input_gb=8.0):
    pipeline = compile_script(
        "a  = LOAD 'in' AS (k:chararray, v:int);\n"
        "g1 = GROUP a BY k;\n"
        "c1 = FOREACH g1 GENERATE group AS k, SUM(a.v) AS t;\n"
        "g2 = GROUP c1 BY t;\n"
        "c2 = FOREACH g2 GENERATE group, COUNT(c1) AS n;\n"
        "STORE c2 INTO 'out';"
    )
    return pipeline.to_planner_jobs({"in": input_gb})


@pytest.fixture(scope="module")
def pipeline_plan():
    return plan_pipeline(
        two_stage_jobs(),
        public_cloud(),
        Goal.min_cost(deadline_hours=8.0),
        NETWORK,
        tiers=[CHEAP, DURABLE],
    )


class TestPlanPipeline:
    def test_stage_count_matches_jobs(self, pipeline_plan):
        assert len(pipeline_plan.stages) == 2

    def test_total_within_deadline(self, pipeline_plan):
        assert pipeline_plan.total_planned_hours <= 8.0 + 1e-6

    def test_later_stage_skips_wan_upload(self, pipeline_plan):
        # Stage 2's input starts in the cloud, so its plan uploads nothing.
        stage2 = pipeline_plan.stages[1]
        assert stage2.plan.total_uploaded_gb() == pytest.approx(0.0, abs=1e-6)

    def test_stage_profiles_match_plans(self, pipeline_plan):
        for stage in pipeline_plan.stages:
            assert stage.profile.exec_cost == pytest.approx(
                stage.plan.predicted_cost
            )
            assert stage.profile.exec_hours == pytest.approx(
                stage.plan.predicted_completion_hours
            )

    def test_expected_cost_at_least_planned(self, pipeline_plan):
        assert (
            pipeline_plan.expected_cost
            >= pipeline_plan.total_planned_cost - 1e-9
        )

    def test_describe_lists_stages_and_tiers(self, pipeline_plan):
        text = pipeline_plan.describe()
        assert "stage0" in text and "tier=" in text

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError, match="no stages"):
            plan_pipeline(
                [], public_cloud(), Goal.min_cost(deadline_hours=4.0), NETWORK
            )

    def test_min_time_goal_rejected(self):
        with pytest.raises(ValueError, match="min-cost"):
            plan_pipeline(
                two_stage_jobs(),
                public_cloud(),
                Goal.min_time(budget_usd=50.0),
                NETWORK,
            )

    def test_impossible_deadline_raises(self):
        # 32 GB over a 16 Mbit/s uplink needs ~4.5 h just to upload.
        jobs = [PlannerJob(name="big", input_gb=32.0)]
        with pytest.raises(Exception):
            plan_pipeline(
                jobs,
                public_cloud(),
                Goal.min_cost(deadline_hours=2.0),
                NETWORK,
            )

    def test_default_tier_is_free_durable(self):
        plan = plan_pipeline(
            two_stage_jobs(),
            public_cloud(),
            Goal.min_cost(deadline_hours=8.0),
            NETWORK,
        )
        assert all(s.tier.is_durable for s in plan.stages)
        assert plan.expected_cost == pytest.approx(
            plan.total_planned_cost, rel=1e-6
        )


class TestFailureInjectedExecution:
    def test_durable_run_is_deterministic(self, pipeline_plan):
        safe_plan = plan_pipeline(
            two_stage_jobs(),
            public_cloud(),
            Goal.min_cost(deadline_hours=8.0),
            NETWORK,
        )
        first = run_pipeline_with_failures(safe_plan, 1)
        second = run_pipeline_with_failures(safe_plan, 2)
        assert first.losses == second.losses == 0
        assert first.cost == pytest.approx(second.cost)
        assert first.stage_attempts == [1, 1]

    def test_seed_reproducibility(self, pipeline_plan):
        a = run_pipeline_with_failures(pipeline_plan, 123)
        b = run_pipeline_with_failures(pipeline_plan, 123)
        assert a.cost == pytest.approx(b.cost)
        assert a.stage_attempts == b.stage_attempts

    def test_losses_force_reexecution(self):
        # A very lossy tier guarantees recoveries at modest stage length.
        lossy = StorageTier("lossy", 0.0, loss_per_hour=0.5)
        plan = plan_pipeline(
            two_stage_jobs(),
            public_cloud(),
            Goal.min_cost(deadline_hours=8.0),
            NETWORK,
            tiers=[lossy],
        )
        rng = np.random.default_rng(5)
        results = [run_pipeline_with_failures(plan, rng) for _ in range(30)]
        assert any(r.losses > 0 for r in results)
        for result in results:
            if result.losses:
                assert sum(result.stage_attempts) > len(plan.stages)
                assert result.cost > plan.total_planned_cost - 1e-9

    def test_hopeless_loss_rate_raises(self):
        doomed = StorageTier("doomed", 0.0, loss_per_hour=1.0)
        plan = plan_pipeline(
            two_stage_jobs(),
            public_cloud(),
            Goal.min_cost(deadline_hours=8.0),
            NETWORK,
            tiers=[doomed],
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            run_pipeline_with_failures(plan, 0)

    def test_distribution_mean_tracks_expectation(self):
        # Monte Carlo mean should land near the analytic expectation
        # (the analytic model is approximate; agree within ~20%).
        lossy = StorageTier("lossy", 1e-4, loss_per_hour=0.10)
        plan = plan_pipeline(
            two_stage_jobs(input_gb=8.0),
            public_cloud(),
            Goal.min_cost(deadline_hours=8.0),
            NETWORK,
            tiers=[lossy],
            retention=RetentionPolicy.DISCARD_AFTER_USE,
        )
        dist = estimate_run_distribution(plan, samples=400, seed=11)
        assert dist["mean_cost"] == pytest.approx(
            plan.expected_cost, rel=0.20
        )
        assert dist["mean_cost"] >= plan.total_planned_cost - 1e-9

    def test_distribution_summary_fields(self, pipeline_plan):
        dist = estimate_run_distribution(pipeline_plan, samples=20)
        assert set(dist) == {
            "mean_cost",
            "max_cost",
            "std_cost",
            "mean_hours",
            "loss_run_fraction",
        }
        assert dist["max_cost"] >= dist["mean_cost"] - 1e-9
