"""Integration tests: full discrete-event deployment strategies.

These exercise the complete stack (planner -> job controller -> substrate
executor -> MapReduce engine -> storage layer -> fluid network -> ledger)
on a scaled-down job so they stay fast; the full-size runs live in
`benchmarks/`.
"""

import pytest

from repro.cloud import local_cluster
from repro.core import (
    DeploymentScenario,
    run_conductor,
    run_hadoop_direct,
    run_hadoop_s3,
    run_hadoop_upload_first,
)
from repro.core.deployments import _SubstrateController, _SubstrateExecutor
from repro.mapreduce.cluster import CLIENT_SITE, S3_SITE, _wired_sites


@pytest.fixture(scope="module")
def scenario():
    # 8 GB at 16 Mbit/s: upload ~1.14 h, everything finishes inside 3 h.
    return DeploymentScenario(input_gb=8.0, deadline_hours=3.0)


class TestBaselines:
    def test_hadoop_direct_is_streamed_and_upload_bound(self, scenario):
        # 16 nodes (7.04 GB/h) match the 2 MB/s uplink (7.03 GB/h): the
        # 8 GB job is upload-bound at ~1.14 h plus the processing tail.
        result = run_hadoop_direct(scenario, nodes=16)
        assert result.streamed
        assert result.runtime_s == pytest.approx(1.4 * 3600, rel=0.25)
        assert result.deadline_met

    def test_hadoop_s3_has_upload_phase_and_s3_charges(self, scenario):
        result = run_hadoop_s3(scenario, nodes=24)
        assert not result.streamed
        assert result.upload_s == pytest.approx(8 * 1024 / 2.0, rel=0.05)
        breakdown = result.cost_breakdown()
        assert breakdown["storage/S3"] > 0
        assert result.task_series[-1][1] >= 128  # all map tasks ran

    def test_upload_first_bills_the_upload_node_longer(self, scenario):
        result = run_hadoop_upload_first(scenario, nodes=24)
        from repro.accounting import CostCategory

        leases = [
            e.quantity for e in result.ledger if e.category is CostCategory.COMPUTE
        ]
        # One node (the HDFS host) is leased for the upload + processing,
        # the rest only for processing.
        assert max(leases) >= 2.0
        assert sorted(leases)[0] <= 2.0

    def test_costs_scale_with_node_count(self, scenario):
        small = run_hadoop_direct(scenario, nodes=6)
        large = run_hadoop_direct(scenario, nodes=18)
        assert large.total_cost > small.total_cost


class TestConductorDeployment:
    def test_plan_is_deployed_and_completes(self, scenario):
        result = run_conductor(scenario)
        assert result.plan is not None
        assert result.task_series[-1][1] >= 128
        # Deployment lands within 15% of the plan's completion estimate.
        planned = result.plan.predicted_completion_hours
        assert result.runtime_s / 3600 <= planned * 1.15 + 0.3

    def test_cost_close_to_plan(self, scenario):
        result = run_conductor(scenario)
        assert result.total_cost <= result.plan.predicted_cost * 1.4 + 0.5

    def test_conductor_not_worse_than_naive_big_cluster(self, scenario):
        conductor = run_conductor(scenario)
        naive = run_hadoop_s3(scenario, nodes=24)
        assert conductor.total_cost <= naive.total_cost * 1.05

    def test_hybrid_uses_free_local_nodes(self):
        scenario = DeploymentScenario(
            input_gb=8.0,
            deadline_hours=4.0,
            local=local_cluster(5),
            local_nodes=5,
        )
        result = run_conductor(scenario)
        # With 4 h of 5 free nodes (8.8 GB capacity), EC2 is barely needed.
        assert result.total_cost < 3.0

    def test_ledger_categories_consistent(self, scenario):
        result = run_conductor(scenario)
        assert result.total_cost == pytest.approx(
            sum(result.cost_breakdown().values())
        )



class TestMonitoredDeployment:
    """Conductor's deployment re-plans through the job controller's loop."""

    def test_a_world_slower_than_the_plan_replans_and_completes(self):
        # Planned at 1.3x the substrate's node rate: the first hour that
        # processes input falls short, and the monitor re-plans from the
        # state read off the namenode and engine.
        scenario = DeploymentScenario(
            input_gb=8.0, deadline_hours=3.0, planning_margin=1.3
        )
        controller = _SubstrateController(scenario)
        result = controller.run()
        assert result.completed
        assert "deviation" in [r.kind for r in result.replan_records]
        assert len(result.plans) == result.replans + 1 >= 2
        state = result.final_state
        assert state.map_done_gb == pytest.approx(8.0)
        assert state.source_remaining_gb == pytest.approx(0.0)
        assert state.downloaded_gb == pytest.approx(8.0 * 0.002)
        # The re-plan learned the rate the nodes were measured at, with
        # stragglers running each task at 1-1.1x its nominal time.
        rate = scenario.throughput_gb_per_hour
        learned = controller._believed[scenario.ec2.name]
        assert rate / scenario.straggler_spread <= learned <= rate
        assert run_conductor(scenario).task_series[-1][1] == 128 + 4


class TestCustomerSiteUplink:
    """What leaves the customer's site for the cloud pays the uplink.

    A hybrid run places input on the customer's own nodes and rents EC2
    nodes that read it: every byte from the client or an own node to a
    cloud site (an EC2 node or S3) must cross ``wan-up``, and ``wan-up``
    can carry no more than its capacity over the time elapsed.
    """

    @pytest.fixture(scope="class")
    def hybrid(self):
        scenario = DeploymentScenario(
            input_gb=4.0, deadline_hours=2.0,
            local=local_cluster(3), local_nodes=3,
        )
        controller = _SubstrateController(scenario)
        samples = []
        run_interval = _SubstrateExecutor.execute_interval

        def sampled(executor, interval, state):
            outcome = run_interval(executor, interval, state)
            sub = executor.sub
            samples.append((sub.sim.now, sub.network.utilization_mb()["wan-up"]))
            return outcome

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_SubstrateExecutor, "execute_interval", sampled)
            assert controller.run().completed
        return controller.executor.sub, samples

    def test_every_route_from_the_site_to_the_cloud_crosses_wan_up(self, hybrid):
        sub, _ = hybrid
        wired = _wired_sites(sub.topology)
        site = [CLIENT_SITE] + [s for s, local in wired.items() if local]
        cloud = [S3_SITE] + [s for s, local in wired.items() if not local]
        assert len(site) > 1 and len(cloud) > 1  # own and EC2 nodes both ran
        for src in site:
            for dst in cloud:
                links = [link.name for link in sub.topology.route(src, dst)]
                assert "wan-up" in links, (src, dst, links)

    def test_wan_up_never_carries_more_than_its_capacity(self, hybrid):
        sub, samples = hybrid
        capacity = sub.topology.links["wan-up"].capacity_mb_s
        assert samples and samples[0][1] > 0
        for now, moved_mb in samples:
            assert moved_mb <= capacity * now * (1 + 1e-9)
