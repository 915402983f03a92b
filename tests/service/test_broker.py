"""Request broker: admission control and dispatch ordering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, PlannerJob, PlanningProblem
from repro.service import AdmissionError, PlanRequest, RequestBroker, SubmittedRequest

PROBLEM = PlanningProblem(
    job=PlannerJob(name="job", input_gb=4.0),
    services=public_cloud(),
    network=NetworkConditions.from_mbit_s(16.0),
    goal=Goal.min_cost(deadline_hours=3.0),
)

_ids = iter(range(1, 10_000))


def ticket(tenant="t0", priority=1, deadline_s=None) -> SubmittedRequest:
    request = PlanRequest(
        tenant=tenant, problem=PROBLEM, priority=priority, deadline_s=deadline_s
    )
    return SubmittedRequest(request, next(_ids), "fp")


class TestAdmission:
    def test_per_tenant_bound(self):
        broker = RequestBroker(max_pending_total=10, max_pending_per_tenant=2)
        broker.submit(ticket("a"))
        broker.submit(ticket("a"))
        with pytest.raises(AdmissionError, match="tenant 'a'"):
            broker.submit(ticket("a"))
        # Other tenants are unaffected by a's full queue.
        broker.submit(ticket("b"))
        assert broker.pending == 3

    def test_total_bound(self):
        broker = RequestBroker(max_pending_total=2, max_pending_per_tenant=2)
        broker.submit(ticket("a"))
        broker.submit(ticket("b"))
        with pytest.raises(AdmissionError, match="backlog full"):
            broker.submit(ticket("c"))

    def test_closed_broker_refuses(self):
        broker = RequestBroker()
        broker.close()
        with pytest.raises(AdmissionError, match="closed"):
            broker.submit(ticket())

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            RequestBroker(max_pending_total=0)


class TestOrdering:
    def test_priority_wins_across_tenants(self):
        broker = RequestBroker()
        late_urgent = ticket("b", priority=0)
        broker.submit(ticket("a", priority=1))
        broker.submit(late_urgent)
        assert broker.pop(timeout=0.1) is late_urgent

    def test_deadline_breaks_priority_ties(self):
        broker = RequestBroker()
        relaxed = ticket("a", priority=1, deadline_s=60.0)
        tight = ticket("b", priority=1, deadline_s=5.0)
        broker.submit(relaxed)
        broker.submit(tight)
        assert broker.pop(timeout=0.1) is tight
        assert broker.pop(timeout=0.1) is relaxed

    def test_fifo_within_tenant_and_priority(self):
        broker = RequestBroker()
        first = ticket("a")
        second = ticket("a")
        broker.submit(first)
        broker.submit(second)
        assert broker.pop(timeout=0.1) is first
        assert broker.pop(timeout=0.1) is second

    def test_no_deadline_sorts_after_any_deadline(self):
        broker = RequestBroker()
        unbounded = ticket("a", priority=1)
        bounded = ticket("b", priority=1, deadline_s=3600.0)
        broker.submit(unbounded)
        broker.submit(bounded)
        assert broker.pop(timeout=0.1) is bounded


class TestLifecycle:
    def test_pop_times_out_empty(self):
        broker = RequestBroker()
        assert broker.pop(timeout=0.01) is None

    def test_drain_returns_backlog(self):
        broker = RequestBroker()
        tickets = [ticket("a"), ticket("b"), ticket("a")]
        for t in tickets:
            broker.submit(t)
        drained = broker.drain()
        assert sorted(t.request_id for t in drained) == sorted(
            t.request_id for t in tickets
        )
        assert broker.pending == 0

    def test_introspection(self):
        broker = RequestBroker()
        broker.submit(ticket("a"))
        broker.submit(ticket("a"))
        broker.submit(ticket("b"))
        assert broker.pending == 3
        assert broker.pending_for("a") == 2
        assert broker.pending_for("missing") == 0
        assert set(broker.tenants()) == {"a", "b"}


#: ``None`` pops; a tuple submits (tenant, priority, deadline_s).
_operations = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=2),
            st.sampled_from([None, 5.0, 60.0]),
        ),
    ),
    max_size=60,
)


class TestHeapMatchesTheSortedOrder:
    @settings(max_examples=200, deadline=None)
    @given(operations=_operations)
    def test_pops_in_sorted_order_and_refuses_at_the_bounds(self, operations):
        """Against a model that sorts: every pop is the minimum of what is
        queued by ``(priority, deadline, seq)`` — the order the minimum
        over per-tenant queue heads gave — and a submit is refused exactly
        when the total or the tenant's count stands at its bound."""
        broker = RequestBroker(max_pending_total=6, max_pending_per_tenant=3)
        queued = []  # (priority, deadline, seq, ticket)
        for seq, operation in enumerate(operations):
            if operation is None:
                expected = min(queued, key=lambda entry: entry[:3], default=None)
                if expected is not None:
                    queued.remove(expected)
                    expected = expected[3]
                assert broker.pop(timeout=0) is expected
                continue
            tenant, priority, deadline_s = operation
            item = ticket(tenant, priority, deadline_s)
            held = sum(1 for entry in queued if entry[3].tenant == tenant)
            if len(queued) >= 6:
                with pytest.raises(AdmissionError, match="backlog full"):
                    broker.submit(item)
            elif held >= 3:
                with pytest.raises(AdmissionError, match=f"tenant '{tenant}'"):
                    broker.submit(item)
            else:
                broker.submit(item)
                deadline = math.inf if deadline_s is None else item.expires_at
                queued.append((priority, deadline, seq, item))
            assert broker.pending == len(queued)
            assert broker.pending_for(tenant) == sum(
                1 for entry in queued if entry[3].tenant == tenant
            )
        assert sorted(broker.tenants()) == sorted(
            {entry[3].tenant for entry in queued}
        )
