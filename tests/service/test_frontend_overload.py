"""Overload behavior of the service behind the socket frontend: bounded
queues shed with ``rejected`` (never hang), queued requests expire on
deadline, deadline shedding trips at admission, and disconnect-cancelled
work never solves."""

import threading
import time

import pytest
from test_frontend_cache import (
    hold_dispatcher,
    make_problem,
    manual_service,
    ordered_service,
    record_fed,
    wait_until,
)

from repro.core import Planner
from repro.service import (
    AdmissionError,
    PlanningService,
    PlanRequest,
    RequestStatus,
    ServiceConfig,
)


class TestAdmissionShedding:
    def test_saturated_shard_sheds_instead_of_hanging(self):
        # One solve gated in the pool, one leader held by the feeder for
        # the single worker slot, two more filling the solve queue — the
        # next submit is refused immediately (AdmissionError -> wire
        # status "rejected"), and everything admitted still completes
        # once the solves land.
        problems = [make_problem(input_gb=gb) for gb in (2.0, 3.0, 5.0, 8.0)]
        service, pool = manual_service(
            max_pending_total=2, max_pending_per_tenant=2
        )
        fed = record_fed(service)
        with service:
            tickets = [service.submit(problems[0], tenant="acme")]
            assert wait_until(lambda: len(pool.submissions) == 1)
            tickets.append(service.submit(problems[1], tenant="acme"))
            assert wait_until(lambda: tickets[1] in fed)
            tickets += [
                service.submit(problem, tenant="acme") for problem in problems[2:]
            ]
            assert wait_until(lambda: service.solve_queue.pending == 2)
            started = time.perf_counter()
            with pytest.raises(AdmissionError):
                service.submit(make_problem(input_gb=13.0), tenant="acme")
            # Shedding is immediate, not a timeout.
            assert time.perf_counter() - started < 1.0

            for index, problem in enumerate(problems):
                assert wait_until(lambda: len(pool.submissions) == index + 1)
                pool.submissions[index][1].set_result(Planner().plan(problem))
                assert tickets[index].result(timeout=10.0).ok
        assert service.metrics.rejected == 1

    def test_blocking_submit_waits_out_a_cold_backlog(self):
        # The cold backlog waits in the solve queue, not the broker; a
        # ``block=True`` submitter (the stdin stream path) must still
        # see it as backpressure, and lose nothing.
        problems = [make_problem(input_gb=gb) for gb in (2.0, 3.0, 5.0, 8.0)]
        service, pool = manual_service(
            max_pending_total=1, max_pending_per_tenant=1
        )
        fed = record_fed(service)
        with service:
            tickets = [service.submit(problems[0], tenant="acme")]
            assert wait_until(lambda: len(pool.submissions) == 1)
            tickets.append(service.submit(problems[1], tenant="acme"))
            assert wait_until(lambda: tickets[1] in fed)
            tickets.append(service.submit(problems[2], tenant="acme"))
            assert wait_until(lambda: service.solve_queue.pending == 1)
            blocked = threading.Thread(target=lambda: tickets.append(
                service.submit_request(
                    PlanRequest(tenant="acme", problem=problems[3]),
                    block=True,
                    poll_s=0.01,
                )
            ))
            blocked.start()
            time.sleep(0.1)
            assert len(tickets) == 3  # held back, not refused
            for index, problem in enumerate(problems):
                assert wait_until(lambda: len(pool.submissions) == index + 1)
                pool.submissions[index][1].set_result(Planner().plan(problem))
                assert wait_until(lambda: len(tickets) > index)
                assert tickets[index].result(timeout=10.0).ok
            blocked.join(timeout=10.0)
        assert service.metrics.rejected == 0
        assert service.metrics.completed == 4

    def test_deadline_shedding_rejects_unmeetable_deadlines(self):
        service = PlanningService(ServiceConfig(
            pool_mode="inline", max_workers=1, deadline_shedding=True
        ))
        gate = hold_dispatcher(service)
        problems = [make_problem(input_gb=gb) for gb in (2.0, 4.0, 8.0)]
        try:
            held = service.submit(problems[0], tenant="acme")
            assert wait_until(lambda: service.broker.pending == 0)
            service.submit(problems[1], tenant="acme")
            assert service.broker.pending == 1
            # With a backlog and a queue-wait estimate far above the
            # deadline, admission sheds instead of queueing-to-expire...
            service._queue_wait_ewma = 10.0
            with pytest.raises(AdmissionError):
                service.submit(problems[2], tenant="acme", deadline_s=0.1)
            assert service.metrics.rejected == 1
            # ...but a request with no deadline still queues fine.
            service.submit(problems[2], tenant="acme")
            assert service.metrics.rejected == 1
            gate.set()
            assert held.result(timeout=120.0).ok
        finally:
            gate.set()
            service.stop()

    def test_cold_service_never_deadline_sheds(self):
        config = ServiceConfig(
            pool_mode="inline", max_workers=1, deadline_shedding=True
        )
        with PlanningService(config) as service:
            result = service.submit(
                make_problem(), tenant="acme", deadline_s=120.0
            ).result(timeout=120.0)
        assert result.ok


class TestQueuedExpiry:
    def test_deadline_expired_queued_request_returns_expired(self):
        # The dispatcher is stalled on the first ticket, so the second —
        # with a tiny deadline — provably sits in the broker queue while
        # its SLO lapses: it must come back EXPIRED, never solved
        # uselessly late.
        service, pool = manual_service()
        gate = hold_dispatcher(service)
        problems = [make_problem(input_gb=gb) for gb in (2.0, 8.0)]
        with service:
            head = service.submit(problems[0], tenant="acme")
            assert wait_until(lambda: service.broker.pending == 0)
            doomed = service.submit(problems[1], tenant="acme", deadline_s=1e-3)
            assert service.broker.pending == 1
            time.sleep(0.05)  # the queued deadline lapses
            gate.set()
            result = doomed.result(timeout=10.0)
            assert wait_until(lambda: len(pool.submissions) == 1)
            pool.submissions[0][1].set_result(Planner().plan(problems[0]))
            assert head.result(timeout=10.0).ok
        assert result.status is RequestStatus.EXPIRED
        assert result.error_code == "expired"
        assert "in queue" in result.error
        assert len(pool.submissions) == 1
        assert service.metrics.expired == 1


class TestDisconnectCancellation:
    def test_cancel_before_dispatch_skips_the_solver(self):
        with ordered_service() as service:
            head = service.submit(make_problem(input_gb=2.0), tenant="acme")
            doomed = service.submit(make_problem(input_gb=8.0), tenant="acme")
            doomed.cancel()
            assert head.result(timeout=120.0).ok
            result = doomed.result(timeout=120.0)
        assert result.status is RequestStatus.REJECTED
        assert result.error_code == "rejected"
        assert service.metrics.cancelled == 1
        # The cancelled fingerprint never reached the solver: only the
        # head request was a cache miss.
        assert service.metrics.cache_misses == 1

    def test_cancel_after_completion_is_a_noop(self):
        config = ServiceConfig(pool_mode="inline", max_workers=1)
        with PlanningService(config) as service:
            ticket = service.submit(make_problem(), tenant="acme")
            result = ticket.result(timeout=120.0)
            ticket.cancel()
        assert result.ok
        assert service.metrics.cancelled == 0
