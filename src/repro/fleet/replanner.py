"""What a fleet's deployments share, computed once: estimates and plans.

The scheduler steps its deployments in lockstep over one substrate, so
in any step they ask many identical questions.  Two of them are paid
for once per fleet:

- **Spot estimates.**  Every deployment on a trace asks the predictor
  for ``E[b(i,t)]`` (paper §4.7, eq. 6) at the same hour, and for a bid
  for that hour.  :class:`SharedPredictor` wraps the caller's predictor
  once per fleet and answers each ``(trace, hour, horizon)`` question
  from a table that it drops when the hour moves.  This relies on the
  :class:`~repro.core.predictor.SpotPredictor` purity contract; the one
  estimate array it returns lands in many deployments' problems, so it
  is read-only.
- **Plans.**  Deployments in the same state asking the same question
  must pay for **one** solve, not N.  :class:`CachingPlanner` keys an
  :class:`~repro.service.cache.LRUCache` on the problem's canonical
  encoding (:meth:`~repro.core.problem.PlanningProblem.canonical`)
  itself, so identical re-plans coalesce into one solve exactly like
  identical tenant requests do in
  :class:`~repro.service.service.PlanningService`.  The key is the tuple,
  not the service's SHA-256 of its ``repr``: the fleet's problems never
  cross a wire, and a tuple is hashed and compared without being
  printed.

A miss is ``Planner.plan`` — the same cold path as ``repro plan``.  A
fleet's re-plans shrink the horizon or jump between input sizes, so the
incremental solver's warm restart did not fit them (0 of 201 warm on the
``fleet_adapt`` benchmark; docs/solver.md, "The fleet re-plans cold").
"""

from __future__ import annotations

import time

import numpy as np

from ..cloud.spot import SpotTrace
from ..core.plan import ExecutionPlan
from ..core.planner import Planner
from ..core.predictor import SpotPredictor
from ..core.problem import PlanningProblem
from ..service.cache import LRUCache

__all__ = ["CachingPlanner", "SharedPredictor"]

#: Optimal plans one fleet's cache keeps, least recently used evicted.
CAPACITY = 512


class SharedPredictor(SpotPredictor):
    """One predictor's answers for the hour, shared across a fleet.

    ``estimate`` and ``bid`` go to the wrapped predictor once per
    ``(trace, hour, horizon)`` and once per ``(trace, hour)``; repeats
    are served from a table keyed by trace identity and horizon (``None``
    for the bid), which is dropped as soon as a question names another hour (the fleet's
    deployments step in lockstep, so no one asks about the last hour
    again).  ``bid`` forwards to the wrapped predictor's own ``bid``, so
    a :class:`~repro.core.predictor.MarginBidder` keeps its margin.
    """

    def __init__(self, inner: SpotPredictor) -> None:
        self.inner = inner
        self._hour: float | None = None
        self._answers: dict[tuple[int, int | None], object] = {}

    def _table(self, now_hour: float) -> dict:
        if now_hour != self._hour:
            self._hour = now_hour
            self._answers = {}
        return self._answers

    def estimate(
        self, trace: SpotTrace, now_hour: float, horizon_hours: int
    ) -> np.ndarray:
        answers = self._table(now_hour)
        key = (id(trace), horizon_hours)
        estimate = answers.get(key)
        if estimate is None:
            estimate = self.inner.estimate(trace, now_hour, horizon_hours)
            # Many deployments' problems hold this one array: a write
            # through any of them must raise, not re-price the others.
            estimate.setflags(write=False)
            answers[key] = estimate
        return estimate

    def bid(self, trace: SpotTrace, now_hour: float) -> float:
        answers = self._table(now_hour)
        key = (id(trace), None)
        bid = answers.get(key)
        if bid is None:
            bid = answers[key] = self.inner.bid(trace, now_hour)
        return bid


class CachingPlanner:
    """A :class:`Planner` façade sharing one plan cache across a fleet.

    Duck-types ``Planner.plan`` so a :class:`JobController` can use it
    unchanged.  Only optimal plans are published to the cache (the same
    rule the planning service applies: a cut-off incumbent shaped by one
    caller must not be served to everyone).

    The cache key is ``problem.canonical()``, compared as a tuple of
    floats: ``0.0`` and ``-0.0`` share a key, and a problem holding a NaN
    never hits.

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
        key = problem.canonical()
        cached = self.cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        start = time.perf_counter()
        plan = self.planner.plan(problem)
        seconds = time.perf_counter() - start
        self.solves += 1
        if plan.solver_status == "optimal":
            self.cache.put(key, plan)
        if self.on_solve is not None:
            self.on_solve(seconds)
        return plan
