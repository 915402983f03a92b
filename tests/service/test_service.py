"""End-to-end planning-service behavior: correctness, caching, coalescing,
failure handling, and parallel submits."""

import threading

import pytest

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, Planner, PlannerJob, PlanningProblem
from repro.service import (
    PlanningService,
    RequestStatus,
    ServiceConfig,
    problem_fingerprint,
)


def make_problem(input_gb=4.0, deadline=3.0, uplink=16.0) -> PlanningProblem:
    return PlanningProblem(
        job=PlannerJob(name="job", input_gb=input_gb),
        services=public_cloud(),
        network=NetworkConditions.from_mbit_s(uplink),
        goal=Goal.min_cost(deadline_hours=deadline),
    )


def inline_service(**overrides) -> PlanningService:
    config = dict(pool_mode="inline", max_workers=1)
    config.update(overrides)
    return PlanningService(ServiceConfig(**config))


class TestSolvePath:
    def test_submit_returns_the_planners_plan(self):
        problem = make_problem()
        direct = Planner().plan(problem)
        with inline_service() as service:
            result = service.submit(problem).result(timeout=120.0)
        assert result.ok and not result.cached
        assert result.status is RequestStatus.COMPLETED
        assert result.plan.predicted_cost == pytest.approx(
            direct.predicted_cost, rel=1e-6
        )
        assert result.fingerprint == problem_fingerprint(problem)

    def test_repeat_submit_hits_cache(self):
        problem = make_problem()
        with inline_service() as service:
            first = service.submit(problem).result(timeout=120.0)
            second = service.submit(problem).result(timeout=120.0)
        assert not first.cached
        assert second.cached and second.ok
        assert second.solve_s == 0.0
        assert second.plan.predicted_cost == pytest.approx(
            first.plan.predicted_cost
        )
        assert service.metrics.cache_hit_rate == pytest.approx(0.5)

    def test_submit_time_hits_record_the_turnaround_they_measured(self):
        # The fast path used to log a literal 0.0 per hit, collapsing the
        # reported turnaround percentiles once most completions took it.
        problem = make_problem()
        with inline_service() as service:
            service.submit(problem).result(timeout=120.0)
            hits = [service.submit(problem).result(timeout=0) for _ in range(20)]
        assert all(hit.cached for hit in hits)
        samples = service.metrics.turnaround.samples[1:]
        assert samples == [hit.total_s for hit in hits]
        assert min(samples) > 0.0
        assert service.metrics.snapshot()["turnaround"]["p50_s"] > 0.0

    def test_equivalent_problem_hits_cache(self):
        # Different job name, same planning problem -> same fingerprint.
        renamed = PlanningProblem(
            job=PlannerJob(name="other-name", input_gb=4.0),
            services=list(reversed(public_cloud())),
            network=NetworkConditions.from_mbit_s(16.0),
            goal=Goal.min_cost(deadline_hours=3.0),
        )
        with inline_service() as service:
            service.submit(make_problem()).result(timeout=120.0)
            result = service.submit(renamed).result(timeout=120.0)
        assert result.cached

    def test_infeasible_problem_fails_cleanly(self):
        impossible = make_problem(input_gb=64.0, deadline=2.0)
        with inline_service() as service:
            result = service.submit(impossible).result(timeout=120.0)
        assert result.status is RequestStatus.FAILED
        assert not result.ok
        assert "infeasible" in result.error.lower() or "failed" in result.error.lower()
        assert service.metrics.failed == 1

    def test_expired_request_is_not_solved(self):
        with inline_service() as service:
            ticket = service.submit(make_problem(input_gb=5.0), deadline_s=1e-6)
            result = ticket.result(timeout=30.0)
        assert result.status is RequestStatus.EXPIRED
        assert service.metrics.expired == 1

    def test_stopped_service_refuses_new_work(self):
        from repro.service import AdmissionError

        service = inline_service()
        problem = make_problem(input_gb=3.5)
        with service:
            cached = service.submit(problem).result(timeout=120.0)
        assert cached.ok
        with pytest.raises(AdmissionError):
            service.submit(make_problem(input_gb=7.5))
        # Cache hits still work after shutdown: no solver needed.
        result = service.submit(problem).result(timeout=1.0)
        assert result.cached and result.ok


class TestConcurrency:
    def test_parallel_submits_return_independent_correct_plans(self):
        """N parallel submits of distinct problems -> each gets its own
        correct plan (the satellite's concurrency requirement)."""
        problems = [make_problem(input_gb=gb, deadline=3.0) for gb in (2.0, 4.0, 6.0)]
        expected = {
            problem_fingerprint(p): Planner().plan(p).predicted_cost
            for p in problems
        }
        service = PlanningService(
            ServiceConfig(pool_mode="thread", max_workers=2)
        )
        results = {}
        errors = []

        def submit(problem, index):
            try:
                results[index] = service.submit(
                    problem, tenant=f"tenant-{index}"
                ).result(timeout=300.0)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with service:
            threads = [
                threading.Thread(target=submit, args=(p, i))
                for i, p in enumerate(problems)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300.0)
        assert not errors
        assert len(results) == len(problems)
        for index, problem in enumerate(problems):
            result = results[index]
            assert result.ok
            assert result.plan.predicted_cost == pytest.approx(
                expected[problem_fingerprint(problem)], rel=1e-6
            )

    def test_identical_inflight_submits_coalesce_or_hit(self):
        problem = make_problem(input_gb=6.0)
        service = PlanningService(ServiceConfig(pool_mode="thread", max_workers=1))
        with service:
            first = service.submit(problem)
            second = service.submit(problem)
            r1 = first.result(timeout=300.0)
            r2 = second.result(timeout=300.0)
        assert r1.ok and r2.ok
        # The duplicate never pays for a second solve: it either coalesced
        # onto the in-flight solve or hit the cache just after it landed.
        assert not r1.cached
        assert r2.cached
        assert service.metrics.cache_misses == 1
        assert r2.plan.predicted_cost == pytest.approx(r1.plan.predicted_cost)

    def test_budget_shaped_failure_does_not_poison_coalesced_waiter(self):
        """A duplicate request must not inherit the outcome of a solve
        that was cut short by the *primary's* tiny time budget."""
        problem = make_problem(input_gb=6.5)
        service = PlanningService(ServiceConfig(pool_mode="thread", max_workers=1))
        with service:
            primary = service.submit(problem, time_budget_s=1e-3)
            waiter = service.submit(problem)
            primary_result = primary.result(timeout=300.0)
            waiter_result = waiter.result(timeout=300.0)
        # Whatever the budget did to the primary, the unconstrained
        # duplicate gets a real plan.
        assert waiter_result.ok
        if not primary_result.ok:
            assert waiter_result.plan is not None

    def test_broken_pool_fails_fast_without_wedging_the_service(self):
        """A pool.submit crash must not leak the worker slot or strand
        later identical requests on a dead in-flight entry."""
        problem = make_problem(input_gb=2.5)
        with inline_service() as service:
            healthy_submit = service.pool.submit

            def broken_submit(*args, **kwargs):
                raise RuntimeError("pool broke")

            service.pool.submit = broken_submit
            failed = service.submit(problem).result(timeout=30.0)
            assert failed.status is RequestStatus.FAILED
            assert "pool broke" in failed.error

            service.pool.submit = healthy_submit
            recovered = service.submit(problem).result(timeout=120.0)
        assert recovered.ok and not recovered.cached

    def test_submit_after_stop_does_not_restart_dispatcher(self):
        from repro.service import AdmissionError

        service = inline_service()
        with service:
            pass
        with pytest.raises(AdmissionError):
            service.submit(make_problem(input_gb=2.25))
        assert not service._running
        assert service._dispatcher is None

    def test_process_pool_smoke(self):
        """The default (process) pool round-trips problems and plans."""
        problem = make_problem(input_gb=2.0)
        service = PlanningService(ServiceConfig(pool_mode="process", max_workers=2))
        with service:
            result = service.submit(problem).result(timeout=300.0)
        assert result.ok
        direct = Planner().plan(problem)
        assert result.plan.predicted_cost == pytest.approx(
            direct.predicted_cost, rel=1e-6
        )


class TestConfigValidation:
    def test_unknown_pool_mode_rejected(self):
        with pytest.raises(ValueError, match="pool mode"):
            PlanningService(ServiceConfig(pool_mode="fiber"))

    def test_incremental_with_a_process_pool_is_refused(self):
        # Process workers cannot share the solver's retained state; the
        # combination used to start and silently solve everything cold.
        with pytest.raises(ValueError, match="thread or inline"):
            PlanningService(ServiceConfig(pool_mode="process", incremental=True))
        for mode in ("thread", "inline"):
            service = PlanningService(
                ServiceConfig(pool_mode=mode, incremental=True)
            )
            assert service.pool.incremental is service.incremental is not None

    def test_bad_request_arguments_rejected(self):
        with inline_service() as service:
            with pytest.raises(ValueError):
                service.submit(make_problem(), tenant="")
            with pytest.raises(ValueError):
                service.submit(make_problem(), deadline_s=-1.0)
