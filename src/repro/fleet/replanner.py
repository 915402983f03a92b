"""Fleet-wide plan reuse: one plan cache in front of the cold planner.

When a substrate event touches N deployments at once, the scheduler asks
each of them to re-plan — but deployments that are in the same state and
asking the same question must pay for **one** solve, not N.  This reuses
the multi-tenant service's machinery from the plan-cache work: canonical
:func:`~repro.service.fingerprint.problem_fingerprint` keys into the
same :class:`~repro.service.cache.LRUCache`, so identical re-plans
coalesce into one solve exactly like identical tenant requests do in
:class:`~repro.service.service.PlanningService`.

A miss is ``Planner.plan`` — the same cold path as ``repro plan``.  A
fleet's re-plans shrink the horizon or jump between input sizes, so the
incremental solver's warm restart did not fit them (0 of 201 warm on the
``fleet_adapt`` benchmark; docs/solver.md, "The fleet re-plans cold").
"""

from __future__ import annotations

import time

from ..core.plan import ExecutionPlan
from ..core.planner import Planner
from ..core.problem import PlanningProblem
from ..service.cache import LRUCache
from ..service.fingerprint import problem_fingerprint

__all__ = ["CachingPlanner"]

#: Optimal plans one fleet's cache keeps, least recently used evicted.
CAPACITY = 512


class CachingPlanner:
    """A :class:`Planner` façade sharing one plan cache across a fleet.

    Duck-types ``Planner.plan`` so a :class:`JobController` can use it
    unchanged.  Only optimal plans are published to the cache (the same
    rule the planning service applies: a cut-off incumbent shaped by one
    caller must not be served to everyone).

    ``on_solve`` (assignable any time, e.g. by the fleet scheduler when
    a tracer is attached) observes each cache-miss solve's wall-clock
    seconds — the span-timer hook of the observability layer.
    """

    def __init__(self, planner: Planner | None = None) -> None:
        self.planner = planner or Planner()
        self.cache: LRUCache[ExecutionPlan] = LRUCache(CAPACITY)
        self.solves = 0
        self.hits = 0
        #: Optional callable(seconds) invoked after every real solve.
        self.on_solve = None

    def plan(self, problem: PlanningProblem) -> ExecutionPlan:
        """Solve ``problem``, serving identical problems from the cache."""
        fingerprint = problem_fingerprint(problem)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            self.hits += 1
            return cached
        start = time.perf_counter()
        plan = self.planner.plan(problem)
        seconds = time.perf_counter() - start
        self.solves += 1
        if plan.solver_status == "optimal":
            self.cache.put(fingerprint, plan)
        if self.on_solve is not None:
            self.on_solve(seconds)
        return plan
