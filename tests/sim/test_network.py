"""Unit and property tests for the max-min fair fluid network."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    FluidNetwork,
    Link,
    RoutingError,
    Simulation,
    Topology,
    max_min_fair_rates,
)


@pytest.fixture
def star():
    """client --uplink--> {a, b} with per-node NICs."""
    topo = Topology()
    topo.add_link("uplink", 2.0)
    topo.add_link("nic-a", 100.0)
    topo.add_link("nic-b", 100.0)
    topo.add_route("client", "a", ["uplink", "nic-a"])
    topo.add_route("client", "b", ["uplink", "nic-b"])
    return topo


class TestTopology:
    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_link("l", 1.0)
        with pytest.raises(ValueError):
            topo.add_link("l", 2.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link("bad", 0.0)

    def test_missing_route_raises(self, star):
        with pytest.raises(RoutingError):
            star.route("a", "nowhere")

    def test_symmetric_route_reversed(self, star):
        forward = star.route("client", "a")
        reverse = star.route("a", "client")
        assert [l.name for l in reverse] == [l.name for l in reversed(forward)]

    def test_self_route_empty_by_default(self, star):
        assert star.route("a", "a") == []

    def test_explicit_self_route(self):
        topo = Topology()
        topo.add_link("disk", 60.0)
        topo.add_route("n", "n", ["disk"], symmetric=False)
        assert [l.name for l in topo.route("n", "n")] == ["disk"]


class TestMaxMinFairness:
    def test_equal_split_on_shared_bottleneck(self, star):
        flows = [star.route("client", "a"), star.route("client", "b")]
        rates = max_min_fair_rates(flows)
        assert rates == pytest.approx([1.0, 1.0])

    def test_unshared_flows_get_full_capacity(self, star):
        rates = max_min_fair_rates([star.route("client", "a")])
        assert rates == pytest.approx([2.0])

    def test_empty_path_is_infinite(self):
        assert max_min_fair_rates([[]]) == [math.inf]

    def test_bottleneck_redistribution(self):
        # Two links: A (cap 10) shared by f1,f2; B (cap 2) also on f2's
        # path.  f2 is capped at 2 by B, so f1 should get 8, not 5.
        a, b = Link("A", 10.0), Link("B", 2.0)
        rates = max_min_fair_rates([[a], [a, b]])
        assert rates[1] == pytest.approx(2.0)
        assert rates[0] == pytest.approx(8.0)

    def test_capacity_override(self):
        link = Link("A", 10.0)
        rates = max_min_fair_rates([[link]], capacities={"A": 4.0})
        assert rates == pytest.approx([4.0])


@st.composite
def random_flow_sets(draw):
    num_links = draw(st.integers(1, 5))
    links = [
        Link(f"l{i}", draw(st.floats(0.5, 50.0, allow_nan=False)))
        for i in range(num_links)
    ]
    num_flows = draw(st.integers(1, 8))
    flows = []
    for _ in range(num_flows):
        indices = draw(
            st.lists(st.integers(0, num_links - 1), min_size=1, max_size=3, unique=True)
        )
        flows.append([links[i] for i in indices])
    return links, flows


class TestFairnessProperties:
    @given(random_flow_sets())
    @settings(max_examples=80, deadline=None)
    def test_no_link_oversubscribed(self, links_flows):
        links, flows = links_flows
        rates = max_min_fair_rates(flows)
        for link in links:
            load = sum(r for r, path in zip(rates, flows) if link in path)
            assert load <= link.capacity_mb_s + 1e-6

    @given(random_flow_sets())
    @settings(max_examples=80, deadline=None)
    def test_rates_positive_and_bottlenecked(self, links_flows):
        links, flows = links_flows
        rates = max_min_fair_rates(flows)
        for rate, path in zip(rates, flows):
            assert rate > 0
            # Every flow is limited by at least one saturated link.
            saturated = False
            for link in path:
                load = sum(r for r, p in zip(rates, flows) if link in p)
                if load >= link.capacity_mb_s - 1e-6:
                    saturated = True
            assert saturated

    @given(random_flow_sets())
    @settings(max_examples=50, deadline=None)
    def test_single_flow_per_link_gets_min_capacity(self, links_flows):
        _links, flows = links_flows
        rates = max_min_fair_rates([flows[0]])
        assert rates[0] == pytest.approx(
            min(l.capacity_mb_s for l in flows[0]), rel=1e-6
        )


class TestFluidNetwork:
    def test_two_flows_share_and_finish_together(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        done = []
        net.start_flow("client", "a", 60.0, lambda f: done.append(("a", sim.now)))
        net.start_flow("client", "b", 60.0, lambda f: done.append(("b", sim.now)))
        sim.run_until_idle()
        assert done == [("a", 60.0), ("b", 60.0)]

    def test_rate_increases_after_completion(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        done = {}
        net.start_flow("client", "a", 30.0, lambda f: done.update(a=sim.now))
        net.start_flow("client", "b", 90.0, lambda f: done.update(b=sim.now))
        sim.run_until_idle()
        # Shared at 1 MB/s until a finishes (30s), then b at 2 MB/s:
        # b has 60 MB left -> finishes at 30 + 60/2 = 60.
        assert done["a"] == pytest.approx(30.0)
        assert done["b"] == pytest.approx(60.0)

    def test_zero_size_flow_completes_immediately(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        done = []
        net.start_flow("client", "a", 0.0, lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [0.0]

    def test_negative_size_rejected(self, star):
        net = FluidNetwork(Simulation(), star)
        with pytest.raises(ValueError):
            net.start_flow("client", "a", -1.0)

    def test_local_flow_instantaneous(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        done = []
        net.start_flow("a", "a", 500.0, lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [0.0]

    def test_utilization_tracks_bytes(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        net.start_flow("client", "a", 20.0)
        sim.run_until_idle()
        assert net.utilization_mb()["uplink"] == pytest.approx(20.0)

    def test_completed_flow_count(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        for _ in range(3):
            net.start_flow("client", "a", 1.0)
        sim.run_until_idle()
        assert net.completed_flows == 3

    def test_many_concurrent_flows_conserve_volume(self, star):
        sim = Simulation()
        net = FluidNetwork(sim, star)
        total = 0.0
        for i in range(20):
            size = 5.0 + i
            total += size
            net.start_flow("client", "a" if i % 2 else "b", size)
        sim.run_until_idle()
        assert net.utilization_mb()["uplink"] == pytest.approx(total)
        # Uplink at 2 MB/s is the bottleneck: elapsed = total / 2.
        assert sim.now == pytest.approx(total / 2.0)
