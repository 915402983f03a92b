"""The solver worker pool: bounded-concurrency LP solving.

Distinct models solve in parallel — in separate *processes* by default
(the LP work is CPU-bound; HiGHS holds the GIL for long stretches), or
in threads / inline for tests and small deployments.  Each request
carries a time budget that caps the solver's own cut-off (the paper's
three-minute CPLEX bound is the default ceiling).

Thread and inline workers can instead route their solves through an
:class:`~repro.service.incremental.IncrementalSolver`, which restarts
structurally repeated problems warm.
"""

from __future__ import annotations

import concurrent.futures
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

from ..core.model_builder import build_model
from ..core.plan import ExecutionPlan
from ..core.problem import PlanningProblem

#: Supported execution modes.
MODES = ("process", "thread", "inline")


def solve_problem(
    problem: PlanningProblem, time_limit: float = 180.0, mip_gap: float = 0.01
) -> ExecutionPlan:
    """The cold path: build the model, solve it, extract the plan (or
    raise :class:`~repro.core.model_builder.PlanningError`).

    Module-level so :class:`ProcessPoolExecutor` can pickle it.
    """
    built = build_model(problem)
    return built.extract_plan(built.solve(time_limit, mip_gap))


class SolverPool:
    """Dispatches planning problems to solver workers.

    Parameters
    ----------
    max_workers:
        Bound on concurrent solves.
    mode:
        ``"process"`` (default), ``"thread"``, or ``"inline"`` (solve on
        the calling thread; concurrency 1 — deterministic, for tests).
    time_limit:
        Ceiling on any request's solver cut-off, seconds.
    mip_gap:
        Passed through to :meth:`~repro.lp.MatrixModel.solve`.
    incremental:
        Optional :class:`~repro.service.incremental.IncrementalSolver`.
        Thread/inline workers route their solves through it, so
        structurally repeated problems restart warm from the retained
        matrix.  Process workers cannot share its in-memory state, so
        the combination is refused.
    """

    def __init__(
        self,
        max_workers: int = 2,
        mode: str = "process",
        time_limit: float = 180.0,
        mip_gap: float = 0.01,
        incremental=None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown pool mode {mode!r}; pick one of {MODES}")
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if incremental is not None and mode == "process":
            raise ValueError(
                "an incremental solver needs a thread or inline pool: "
                "process workers cannot share its retained state"
            )
        self.mode = mode
        self.max_workers = 1 if mode == "inline" else max_workers
        self.time_limit = time_limit
        self.mip_gap = mip_gap
        self.incremental = incremental
        self._lock = threading.Lock()
        self._executor: concurrent.futures.Executor | None = None

    # -- lifecycle --------------------------------------------------------

    def _ensure_executor(self) -> concurrent.futures.Executor | None:
        with self._lock:
            if self._executor is None and self.mode != "inline":
                if self.mode == "process":
                    self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-solver",
                    )
            return self._executor

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    # -- dispatch ---------------------------------------------------------

    def effective_time_limit(self, time_budget_s: float | None) -> float:
        if time_budget_s is None:
            return self.time_limit
        return max(1e-3, min(self.time_limit, time_budget_s))

    def submit(
        self, problem: PlanningProblem, time_budget_s: float | None = None
    ) -> "Future[ExecutionPlan]":
        """Schedule a solve; the future resolves to an ExecutionPlan or
        raises the solver's :class:`PlanningError`."""
        limit = self.effective_time_limit(time_budget_s)
        if self.incremental is not None:
            solve, args = self.incremental.solve, (problem, limit)
        else:
            solve, args = solve_problem, (problem, limit, self.mip_gap)
        executor = self._ensure_executor()
        if executor is not None:
            return executor.submit(solve, *args)
        future: "Future[ExecutionPlan]" = Future()
        try:
            future.set_result(solve(*args))
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            future.set_exception(exc)
        return future
