"""The one plan cache behind the service: a fingerprint solved for one
tenant answers every other, identical cold requests single-flight onto
one solve, every terminal path of a flight leader settles its joiners,
and per-tenant FIFO holds under ordered admission.

Test ids predate the single-service design; in them "shard" reads
"tenant" and "L2" reads "the plan cache".
"""

import concurrent.futures
import dataclasses
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, Planner, PlannerJob, PlanningProblem
from repro.lp.model import SolverError
from repro.service import (
    AdmissionError,
    PlanningService,
    RequestStatus,
    ServiceConfig,
    SharedPlanCache,
    problem_fingerprint,
)
from repro.service.frontend import shard_for_tenant


def make_problem(input_gb=4.0, deadline=3.0, uplink=16.0) -> PlanningProblem:
    return PlanningProblem(
        job=PlannerJob(name="job", input_gb=input_gb),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(uplink),
        goal=Goal.min_cost(deadline_hours=deadline),
    )


def ordered_service(**overrides) -> PlanningService:
    """The socket frontend's service: per-tenant FIFO across hits and
    misses."""
    config = dict(pool_mode="inline", max_workers=1, ordered_admission=True)
    config.update(overrides)
    return PlanningService(ServiceConfig(**config))


class ManualPool:
    """A solver pool whose futures the test completes by hand."""

    max_workers = 1

    def __init__(self):
        self.submissions = []

    def submit(self, problem, budget):
        future = concurrent.futures.Future()
        self.submissions.append((problem_fingerprint(problem), future))
        return future

    def shutdown(self, wait=True):
        for _, future in self.submissions:
            if not future.done():
                future.set_exception(RuntimeError("pool shut down"))


def manual_service(**overrides) -> tuple[PlanningService, ManualPool]:
    service = ordered_service(**overrides)
    service.pool = pool = ManualPool()
    return service, pool


def joined_count(cache: SharedPlanCache) -> int:
    """How many callbacks have joined the cache's open flights."""
    return sum(len(callbacks) for callbacks in cache._flights.values())


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def record_fed(service: PlanningService) -> list:
    """Tickets the feeder has taken off the solve queue, in order.  Call
    before the service starts: a ticket in the list with the only worker
    busy is provably waiting for the slot."""
    fed, feed = [], service._feed

    def spy(ticket):
        fed.append(ticket)
        feed(ticket)

    service._feed = spy
    return fed


def hold_dispatcher(service: PlanningService) -> threading.Event:
    """Stall the dispatcher until the returned event is set, so a backlog
    provably sits in the broker.  Call before the service starts."""
    gate, dispatch = threading.Event(), service._dispatch

    def held(ticket):
        gate.wait(10.0)
        dispatch(ticket)

    service._dispatch = held
    return gate


class TestShardRouting:
    def test_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for index in range(50):
                tenant = f"tenant-{index}"
                first = shard_for_tenant(tenant, shards)
                assert first == shard_for_tenant(tenant, shards)
                assert 0 <= first < shards

    def test_spreads_tenants(self):
        hits = {shard_for_tenant(f"tenant-{i}", 4) for i in range(64)}
        assert hits == {0, 1, 2, 3}


class TestSharedL2:
    def test_plan_solved_on_one_shard_hits_on_another(self):
        problem = make_problem()
        service = ordered_service()
        with service:
            first = service.submit(problem, tenant="acme").result(timeout=120.0)
            second = service.submit(problem, tenant="zenith").result(timeout=120.0)
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert second.solve_s == 0.0
        assert service.metrics.cache_misses == 1
        assert service.metrics.cache_hits == 1

    def test_concurrent_identical_requests_on_two_shards_solve_once(self):
        problem = make_problem()
        fingerprint = problem_fingerprint(problem)
        plan = Planner().plan(problem)
        assert plan.solver_status == "optimal"

        service, pool = manual_service()
        with service:
            leader_ticket = service.submit(problem, tenant="acme")
            assert wait_until(lambda: len(pool.submissions) == 1)
            # Another tenant sends the same fingerprint while the solve
            # is in flight: it must join that flight, not start its own.
            follower_ticket = service.submit(problem, tenant="zenith")
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)
            assert service.plan_cache.inflight() == 1
            assert not follower_ticket.done()

            pool.submissions[0][1].set_result(plan)
            leader = leader_ticket.result(timeout=10.0)
            follower = follower_ticket.result(timeout=10.0)

        assert leader.ok and not leader.cached
        assert follower.ok and follower.cached
        assert follower.status is RequestStatus.COMPLETED
        assert len(pool.submissions) == 1
        # The flight settled: the plan is published, the table is empty.
        assert service.plan_cache.get(fingerprint) is plan
        assert service.plan_cache.inflight() == 0
        assert service.metrics.coalesced == 1

    def test_failed_leader_fails_joined_shards_with_same_code(self):
        problem = make_problem()
        service, pool = manual_service()
        with service:
            leader_ticket = service.submit(problem, tenant="acme")
            assert wait_until(lambda: len(pool.submissions) == 1)
            follower_ticket = service.submit(problem, tenant="zenith")
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)

            pool.submissions[0][1].set_exception(SolverError("backend died"))
            leader = leader_ticket.result(timeout=10.0)
            follower = follower_ticket.result(timeout=10.0)

        assert leader.status is RequestStatus.FAILED
        assert follower.status is RequestStatus.FAILED
        assert leader.error_code == follower.error_code == "solver_error"
        assert len(pool.submissions) == 1

    @pytest.mark.parametrize("outcome", ["failure", "incumbent"])
    def test_budgeted_leader_sends_joiners_back_for_their_own_solve(self, outcome):
        problem = make_problem()
        fingerprint = problem_fingerprint(problem)
        plan = Planner().plan(problem)
        service, pool = manual_service()
        with service:
            leader_ticket = service.submit(
                problem, tenant="acme", time_budget_s=0.5
            )
            assert wait_until(lambda: len(pool.submissions) == 1)
            follower_ticket = service.submit(problem, tenant="zenith")
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)

            if outcome == "incumbent":
                incumbent = dataclasses.replace(plan, solver_status="time_limit")
                pool.submissions[0][1].set_result(incumbent)
                leader = leader_ticket.result(timeout=10.0)
                # The leader asked for the cap and keeps what it bought...
                assert leader.ok and leader.plan is incumbent
            else:
                pool.submissions[0][1].set_exception(SolverError("cut short"))
                assert leader_ticket.result(timeout=10.0).status is RequestStatus.FAILED
            # ...which is never retained and never answers the joiner:
            # it goes back through the queue and leads its own solve.
            assert fingerprint not in service.plan_cache
            assert wait_until(lambda: len(pool.submissions) == 2)
            assert not follower_ticket.done()
            pool.submissions[1][1].set_result(plan)
            follower = follower_ticket.result(timeout=10.0)
        assert follower.ok and not follower.cached
        assert follower.plan is plan
        assert service.plan_cache.get(fingerprint) is plan

    def test_joiner_whose_slo_lapsed_during_the_shared_solve_expires(self):
        problem = make_problem()
        plan = Planner().plan(problem)
        service, pool = manual_service()
        with service:
            leader_ticket = service.submit(problem, tenant="acme")
            assert wait_until(lambda: len(pool.submissions) == 1)
            follower_ticket = service.submit(
                problem, tenant="zenith", deadline_s=0.2
            )
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)
            time.sleep(0.25)  # the joiner's deadline lapses mid-solve
            pool.submissions[0][1].set_result(plan)
            assert leader_ticket.result(timeout=10.0).ok
            follower = follower_ticket.result(timeout=10.0)
        assert follower.status is RequestStatus.EXPIRED
        assert follower.error_code == "expired"
        assert "during the coalesced solve" in follower.error
        assert service.metrics.expired == 1

    def test_cache_hit_is_not_held_up_by_a_busy_solver(self):
        # The only worker is taken and a second cold ticket waits for
        # the slot; a third tenant's cache hit must still be answered at
        # once — the dispatcher never waits for a solver.
        hot, gated, waiting = (make_problem(input_gb=gb) for gb in (2.0, 4.0, 8.0))
        service, pool = manual_service()
        service.plan_cache.put(problem_fingerprint(hot), Planner().plan(hot))
        fed = record_fed(service)
        with service:
            gated_ticket = service.submit(gated, tenant="acme")
            assert wait_until(lambda: len(pool.submissions) == 1)
            waiting_ticket = service.submit(waiting, tenant="zenith")
            assert wait_until(lambda: waiting_ticket in fed)
            started = time.perf_counter()
            hit = service.submit(hot, tenant="third").result(timeout=1.0)
            assert time.perf_counter() - started < 1.0
            assert hit.ok and hit.cached
            assert not gated_ticket.done() and not waiting_ticket.done()
            pool.submissions[0][1].set_result(Planner().plan(gated))
            assert wait_until(lambda: len(pool.submissions) == 2)
            pool.submissions[1][1].set_result(Planner().plan(waiting))
            assert gated_ticket.result(timeout=10.0).ok
            assert waiting_ticket.result(timeout=10.0).ok


class TestFlightLeaderTerminalPaths:
    """A leader that never reaches a solver still settles its flight, so
    identical requests behind it get their own solve instead of hanging."""

    def test_dispatch_exception_after_registering_does_not_strand_the_flight(self):
        problem = make_problem()
        plan = Planner().plan(problem)
        service, pool = manual_service()
        begin = service.plan_cache.begin
        raised = []

        def begin_then_raise_once(key, on_done):
            verdict = begin(key, on_done)
            if not raised:
                raised.append(verdict)
                raise RuntimeError("lookup blew up")
            return verdict

        service.plan_cache.begin = begin_then_raise_once
        with service:
            broken = service.submit(problem, tenant="acme").result(timeout=10.0)
            assert raised == [("leader", None)]
            assert broken.status is RequestStatus.FAILED
            assert broken.error_code == "internal"
            assert "lookup blew up" in broken.error
            assert service.plan_cache.inflight() == 0
            # The same fingerprint again: a fresh flight, a real solve.
            retry = service.submit(problem, tenant="zenith")
            assert wait_until(lambda: len(pool.submissions) == 1)
            pool.submissions[0][1].set_result(plan)
            assert retry.result(timeout=10.0).ok
        assert service.metrics.failed == 1

    @pytest.mark.parametrize("lapse", ["expired", "cancelled"])
    def test_leader_lapsing_in_the_slot_wait_requeues_its_joiner(self, lapse):
        gated, contested = make_problem(input_gb=2.0), make_problem(input_gb=8.0)
        service, pool = manual_service()
        fed = record_fed(service)
        with service:
            gated_ticket = service.submit(gated, tenant="acme")
            assert wait_until(lambda: len(pool.submissions) == 1)
            leader_ticket = service.submit(
                contested,
                tenant="zenith",
                deadline_s=0.2 if lapse == "expired" else None,
            )
            assert wait_until(lambda: leader_ticket in fed)
            joiner_ticket = service.submit(contested, tenant="third")
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)
            if lapse == "cancelled":
                leader_ticket.cancel()
            time.sleep(0.25)
            pool.submissions[0][1].set_result(Planner().plan(gated))
            assert gated_ticket.result(timeout=10.0).ok
            leader = leader_ticket.result(timeout=10.0)
            # The joiner asked for a full solve and gets one.
            assert wait_until(lambda: len(pool.submissions) == 2)
            assert pool.submissions[1][0] == joiner_ticket.fingerprint
            pool.submissions[1][1].set_result(Planner().plan(contested))
            joiner = joiner_ticket.result(timeout=10.0)
        assert joiner.ok and not joiner.cached
        if lapse == "expired":
            assert leader.status is RequestStatus.EXPIRED
            assert "waiting for a solver slot" in leader.error
            assert service.metrics.expired == 1
        else:
            assert leader.status is RequestStatus.REJECTED
            assert service.metrics.cancelled == 1

    def test_solve_queue_refusal_rejects_the_leader_and_frees_the_fingerprint(self):
        problem = make_problem()
        service, pool = manual_service()
        submit = service.solve_queue.submit
        refused = []

        def refuse_once(ticket):
            if not refused:
                refused.append(ticket)
                raise AdmissionError("solve queue full")
            submit(ticket)

        service.solve_queue.submit = refuse_once
        with service:
            shed = service.submit(problem, tenant="acme").result(timeout=10.0)
            assert shed.status is RequestStatus.REJECTED
            assert shed.error_code == "rejected"
            assert service.plan_cache.inflight() == 0
            retry = service.submit(problem, tenant="acme")
            assert wait_until(lambda: len(pool.submissions) == 1)
            pool.submissions[0][1].set_result(Planner().plan(problem))
            assert retry.result(timeout=10.0).ok
        assert service.metrics.rejected == 1

    def test_stop_leaves_no_ticket_without_a_terminal_state(self):
        problems = [make_problem(input_gb=gb) for gb in (2.0, 4.0, 8.0)]
        service, pool = manual_service()
        fed = record_fed(service)
        service.start()
        solving = service.submit(problems[0], tenant="acme")
        assert wait_until(lambda: len(pool.submissions) == 1)
        at_the_slot = service.submit(problems[1], tenant="acme")
        assert wait_until(lambda: at_the_slot in fed)
        in_the_solve_queue = service.submit(problems[2], tenant="acme")
        assert wait_until(lambda: service.solve_queue.pending == 1)
        joiners = [
            service.submit(problem, tenant="zenith") for problem in problems
        ]
        assert wait_until(lambda: joined_count(service.plan_cache) == 3)
        service.stop()
        tickets = [solving, at_the_slot, in_the_solve_queue, *joiners]
        results = [ticket.result(timeout=10.0) for ticket in tickets]
        # ManualPool fails the running solve at shutdown; everything else
        # is refused; nobody hangs and no flight stays registered.
        assert results[0].status is RequestStatus.FAILED
        assert results[3].status is RequestStatus.FAILED
        for result in (results[1], results[2], results[4], results[5]):
            assert result.status is RequestStatus.REJECTED
        assert service.plan_cache.inflight() == 0


class TestRequeueAccounting:
    def test_requeued_joiner_does_not_poison_the_shedding_estimate(self):
        # The joiner spends the leader's whole (budget-shaped) solve on
        # the flight; its second pass through the queue is short, and
        # that is all the queue-wait estimate may see of it.
        problem = make_problem()
        service, pool = manual_service()
        with service:
            leader_ticket = service.submit(
                problem, tenant="acme", time_budget_s=0.5
            )
            assert wait_until(lambda: len(pool.submissions) == 1)
            joiner_ticket = service.submit(problem, tenant="zenith")
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)
            time.sleep(0.5)  # the "solve"
            pool.submissions[0][1].set_exception(SolverError("cut short"))
            assert leader_ticket.result(timeout=10.0).status is RequestStatus.FAILED
            assert wait_until(lambda: len(pool.submissions) == 2)
            pool.submissions[1][1].set_result(Planner().plan(problem))
            joiner = joiner_ticket.result(timeout=10.0)
        assert joiner.ok
        # Three dispatches (leader, joiner, joiner again), each queued
        # for milliseconds; with the first pass counted again the last
        # sample alone would be >= 0.5 s and the estimate >= 0.1 s.
        waits = service.metrics.queue_wait.samples
        assert len(waits) == 3
        assert max(waits) < 0.25
        assert service._queue_wait_ewma < 0.05
        # The ticket's own clock still runs from submission.
        assert joiner.total_s >= 0.5


def record_dispatched(service: PlanningService) -> list:
    """Tickets in the order the dispatcher took them up.  Call before
    ``hold_dispatcher`` (so the record is of released tickets) and before
    the service starts."""
    dispatched, dispatch = [], service._dispatch

    def spy(ticket):
        dispatched.append(ticket)
        dispatch(ticket)

    service._dispatch = spy
    return dispatched


def cache_plan(service: PlanningService, problem: PlanningProblem) -> None:
    service.plan_cache.put(problem_fingerprint(problem), Planner().plan(problem))


class TestOrderedAdmissionFifo:
    def test_l2_hit_waits_its_queue_turn(self):
        # Under ordered admission a cache hit is answered at submit time
        # only when that cannot overtake anything: with the tenant's own
        # earlier miss still waiting in the broker it queues behind it.
        hot, cold = make_problem(input_gb=4.0), make_problem(input_gb=8.0)
        service, pool = manual_service()
        cache_plan(service, hot)
        dispatched = record_dispatched(service)
        gate = hold_dispatcher(service)
        with service:
            # Another tenant's ticket occupies the held dispatcher, so
            # acme's miss provably sits in the broker queue.
            service.submit(make_problem(input_gb=2.0), tenant="zenith")
            assert wait_until(lambda: service.broker.pending == 0)
            miss = service.submit(cold, tenant="acme")
            assert service.broker.pending_for("acme") == 1
            hit = service.submit(hot, tenant="acme")
            # Not synchronous: the dispatcher serves it in FIFO order.
            assert not hit.done()
            assert service.broker.pending_for("acme") == 2
            gate.set()
            result = hit.result(timeout=10.0)
            assert result.ok and result.cached
            assert result.queue_wait_s > 0.0
            assert dispatched.index(miss) < dispatched.index(hit)
            assert not miss.done()  # its solve is still the test's to finish

    def test_hit_behind_only_other_tenants_is_answered_at_submit(self):
        # The converse: what waits in the broker belongs to other
        # tenants, so there is nothing of acme's to overtake.
        hot = make_problem(input_gb=4.0)
        service, pool = manual_service()
        cache_plan(service, hot)
        gate = hold_dispatcher(service)
        with service:
            service.submit(make_problem(input_gb=2.0), tenant="zenith")
            assert wait_until(lambda: service.broker.pending == 0)
            service.submit(make_problem(input_gb=8.0), tenant="third")
            assert service.broker.pending == 1
            hit = service.submit(hot, tenant="acme")
            assert hit.done()
            result = hit.result(timeout=0)
            assert result.ok and result.cached
            assert result.queue_wait_s == 0.0
            # The held ticket's tenant is not in the heap any more, but
            # it has not been dispatched either: its hit still queues.
            assert not service.submit(hot, tenant="zenith").done()
            gate.set()

    def test_hit_queues_behind_its_tenants_requeued_joiner(self):
        # A joiner sent back for its own solve is in the broker again;
        # its tenant's next hit must not be answered ahead of it.
        hot, contested = make_problem(input_gb=4.0), make_problem(input_gb=8.0)
        service, pool = manual_service()
        cache_plan(service, hot)
        dispatched = record_dispatched(service)
        gate = hold_dispatcher(service)
        gate.set()
        with service:
            leader = service.submit(contested, tenant="acme", time_budget_s=0.5)
            assert wait_until(lambda: len(pool.submissions) == 1)
            joiner = service.submit(contested, tenant="zenith")
            assert wait_until(lambda: joined_count(service.plan_cache) == 1)
            # On the flight the joiner is not in the broker: a hit of its
            # tenant's is answered at once, as a queued one would be.
            assert service.submit(hot, tenant="zenith").done()
            gate.clear()
            pool.submissions[0][1].set_exception(SolverError("cut short"))
            assert leader.result(timeout=10.0).status is RequestStatus.FAILED
            assert wait_until(lambda: service.broker.holds("zenith"))
            hit = service.submit(hot, tenant="zenith")
            assert not hit.done()
            gate.set()
            assert hit.result(timeout=10.0).cached
            assert dispatched.index(joiner, 2) < dispatched.index(hit)
            assert wait_until(lambda: len(pool.submissions) == 2)
            pool.submissions[1][1].set_result(Planner().plan(contested))
            assert joiner.result(timeout=10.0).ok

    def test_same_tenant_hits_complete_in_submission_order(self):
        problems = [make_problem(input_gb=4.0), make_problem(input_gb=8.0)]
        service = ordered_service()
        for problem in problems:
            service.plan_cache.put(
                problem_fingerprint(problem), Planner().plan(problem)
            )
        completions = []
        with service:
            tickets = [
                service.submit(problem, tenant="acme") for problem in problems
            ]
            for index, ticket in enumerate(tickets):
                ticket.add_done_callback(
                    lambda done, index=index: completions.append(index)
                )
            for ticket in tickets:
                assert ticket.result(timeout=10.0).ok
        assert completions == [0, 1]
        assert service.metrics.cache_hits == 2


#: Plans for the property's hits, solved once (a hit of tenant ``t`` asks
#: for ``_HOT[t]``, so a tenant's hits share one fingerprint and its
#: misses, never solved, each have their own).
_HOT: dict[str, tuple[PlanningProblem, object]] = {}


def hot_problem(tenant: str) -> PlanningProblem:
    if tenant not in _HOT:
        problem = make_problem(input_gb=3.0 + len(_HOT))
        _HOT[tenant] = (problem, Planner().plan(problem))
    return _HOT[tenant][0]


class TestPerTenantFifoProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()),
        min_size=1, max_size=12,
    ))
    def test_queued_tickets_keep_their_tenants_submission_order(self, steps):
        """Interleaved hits and misses of up to three tenants against a
        held dispatcher: a hit is answered at submit exactly while the
        broker holds nothing of its tenant's, and what did queue is
        dispatched — and, for hits, completed — per tenant in the order
        it was submitted."""
        service, pool = manual_service(max_pending_per_tenant=64)
        for tenant in "abc":
            problem = hot_problem(tenant)
            service.plan_cache.put(problem_fingerprint(problem), _HOT[tenant][1])
        dispatched = record_dispatched(service)
        gate = hold_dispatcher(service)
        completed: list = []
        with service:
            service.submit(make_problem(input_gb=2.0), tenant="holder")
            assert wait_until(lambda: service.broker.pending == 0)
            queued: dict[str, list] = {"a": [], "b": [], "c": []}
            queued_hits = []
            for index, (tenant, hit) in enumerate(steps):
                problem = (
                    hot_problem(tenant) if hit
                    else make_problem(input_gb=20.0 + index)
                )
                ticket = service.submit(problem, tenant=tenant)
                if ticket.done():
                    # Answered at submit: a hit with nothing to overtake.
                    assert hit and not queued[tenant]
                    assert ticket.result(timeout=0).queue_wait_s == 0.0
                else:
                    assert not hit or queued[tenant]
                    queued[tenant].append(ticket)
                    if hit:
                        queued_hits.append(ticket)
                        ticket.add_done_callback(completed.append)
            gate.set()
            in_queue = sum(len(tickets) for tickets in queued.values())
            assert wait_until(lambda: len(dispatched) == 1 + in_queue)
            for ticket in queued_hits:
                assert ticket.result(timeout=10.0).cached
        for tenant, tickets in queued.items():
            assert [t for t in dispatched if t.tenant == tenant] == tickets
            assert [t for t in completed if t.tenant == tenant] == [
                t for t in tickets if t in queued_hits
            ]


class TestSharedPlanCacheUnit:
    def test_begin_leader_then_hit_after_finish(self):
        cache = SharedPlanCache(capacity=16)
        verdict, plan = cache.begin("fp", lambda *a: None)
        assert (verdict, plan) == ("leader", None)
        cache.finish("fp", plan="the-plan")
        verdict, plan = cache.begin("fp", lambda *a: None)
        assert (verdict, plan) == ("hit", "the-plan")

    def test_joined_callback_fires_with_outcome(self):
        cache = SharedPlanCache()
        seen = []
        assert cache.begin("fp", lambda *a: None)[0] == "leader"
        assert cache.begin(
            "fp",
            lambda plan, error, budgeted: seen.append((plan, error, budgeted)),
        )[0] == "joined"
        cache.finish("fp", plan="p", budgeted=False)
        assert seen == [("p", None, False)]
        assert cache.inflight() == 0

    def test_finish_publishes_before_dropping_the_flight(self):
        # A begin racing finish must see the plan or the flight — the
        # public contract is simply: after finish, begin returns a hit.
        cache = SharedPlanCache()
        assert cache.begin("fp", lambda *a: None)[0] == "leader"
        cache.finish("fp", plan="p")
        assert cache.get("fp") == "p"

    def test_zero_capacity_still_single_flights(self):
        cache = SharedPlanCache(capacity=0)
        assert cache.begin("fp", lambda *a: None)[0] == "leader"
        fired = []
        assert cache.begin(
            "fp", lambda plan, error, budgeted: fired.append(plan)
        )[0] == "joined"
        cache.finish("fp", plan="p")
        assert fired == ["p"]
        # Nothing retained...
        assert cache.get("fp") is None
        # ...so the next identical request leads a fresh flight.
        assert cache.begin("fp", lambda *a: None)[0] == "leader"
