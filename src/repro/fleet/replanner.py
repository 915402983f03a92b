"""Fleet-wide plan reuse: one warm cache in front of one solver.

When a substrate event touches N deployments at once, the scheduler asks
each of them to re-plan — but deployments that are in the same state and
asking the same question must pay for **one** solve, not N.  This reuses
the multi-tenant service's machinery from the plan-cache work: canonical
:func:`~repro.service.fingerprint.problem_fingerprint` keys into the
same :class:`~repro.service.cache.LRUCache`, so identical re-plans
coalesce into one warm-cache solve exactly like identical tenant
requests do in :class:`~repro.service.service.PlanningService`.

Below the exact cache sits the
:class:`~repro.service.incremental.IncrementalSolver`: re-plans that are
not byte-identical but *structurally* identical (same horizon, same
service set — the replan hot path, where only prices, progress and
bounds moved) restart warm from the previously retained matrix instead
of running a fresh branch & bound.  :meth:`CachingPlanner.plan_batch`
additionally lets the scheduler push every re-plan pending in one step
through one batched certification call.
"""

from __future__ import annotations

import time

from ..core.model_builder import PlanningError
from ..core.plan import ExecutionPlan
from ..core.planner import Planner
from ..core.problem import PlanningProblem
from ..service.cache import LRUCache
from ..service.fingerprint import problem_fingerprint
from ..service.incremental import IncrementalSolver

__all__ = ["CachingPlanner"]


class CachingPlanner:
    """A :class:`Planner` façade sharing one plan cache across a fleet.

    Duck-types ``Planner.plan`` so a :class:`JobController` can use it
    unchanged.  Only optimal plans are published to the cache (the same
    rule the planning service applies: a cut-off incumbent shaped by one
    caller must not be served to everyone).

    Cache misses go to the incremental solver when one is active:
    ``incremental=None`` (the default) builds one automatically when
    ``planner`` is a real :class:`Planner` (mirroring its time limit and
    gap); pass ``incremental=False`` to force every miss through
    ``planner.plan`` unchanged, or a ready-made
    :class:`IncrementalSolver` to share/tune one.  Custom duck-typed
    planners (test stubs) never get a solver implicitly — their
    ``plan`` stays the only solve path.

    ``on_solve`` (assignable any time, e.g. by the fleet scheduler when
    a tracer is attached) observes each cache-miss solve's wall-clock
    seconds — the span-timer hook of the observability layer.

    ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`) gets
    ``plan_cache.hit`` / ``plan_cache.miss`` counters bumped per lookup
    and is handed to the incremental solver for its own counters.
    """

    def __init__(
        self,
        planner: Planner | None = None,
        capacity: int = 512,
        incremental: IncrementalSolver | bool | None = None,
        metrics=None,
    ) -> None:
        self.planner = planner or Planner()
        self.cache: LRUCache[ExecutionPlan] = LRUCache(capacity)
        if incremental is None and isinstance(self.planner, Planner):
            incremental = IncrementalSolver(
                time_limit=self.planner.time_limit,
                mip_gap=self.planner.mip_gap,
            )
        self.incremental: IncrementalSolver | None = (
            incremental if isinstance(incremental, IncrementalSolver) else None
        )
        self.metrics = metrics
        if self.incremental is not None and metrics is not None:
            self.incremental.metrics = metrics
        self.solves = 0
        self.hits = 0
        #: Optional callable(seconds) invoked after every real solve.
        self.on_solve = None
        #: Fingerprints solved by :meth:`plan_batch` whose owner has not
        #: picked the plan up yet; the pickup is that deployment's own
        #: (already-counted) solve, not a coalescing cache hit.
        self._prefetched: set[str] = set()

    def plan(self, problem: PlanningProblem) -> ExecutionPlan:
        """Solve ``problem``, serving identical problems from the cache."""
        fingerprint = problem_fingerprint(problem)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            if fingerprint in self._prefetched:
                self._prefetched.discard(fingerprint)
            else:
                self.hits += 1
                self._bump("plan_cache.hit")
            return cached
        self._bump("plan_cache.miss")
        start = time.perf_counter()
        plan = self._solve(problem)
        seconds = time.perf_counter() - start
        self.solves += 1
        self._publish(fingerprint, plan)
        if self.on_solve is not None:
            self.on_solve(seconds)
        return plan

    def plan_batch(self, problems: list[PlanningProblem]) -> None:
        """Prefetch plans for several problems in one batched solve.

        Deduplicates by exact fingerprint, skips problems whose plan is
        already cached, and pushes the remaining uniques through
        :meth:`IncrementalSolver.solve_many` — concurrent warm
        candidates certify as consecutive hot starts.  Optimal plans are
        published to the cache so the subsequent per-deployment
        :meth:`plan` calls hit; failures are left uncached and simply
        re-raise on that deployment's own ``plan`` call (preserving its
        fallback semantics, e.g. horizon extension).  Without an
        incremental solver this is a no-op — per-deployment ``plan``
        calls already coalesce identical problems.
        """
        if self.incremental is None:
            return
        self._prefetched.clear()
        unique: dict[str, PlanningProblem] = {}
        for problem in problems:
            fingerprint = problem_fingerprint(problem)
            if fingerprint not in unique and fingerprint not in self.cache:
                unique[fingerprint] = problem
        if not unique:
            return
        start = time.perf_counter()
        results = self.incremental.solve_many(list(unique.values()))
        seconds = (time.perf_counter() - start) / len(unique)
        for fingerprint, result in zip(unique, results):
            if isinstance(result, PlanningError):
                continue
            self.solves += 1
            self._bump("plan_cache.miss")
            self._publish(fingerprint, result)
            if result.solver_status == "optimal":
                self._prefetched.add(fingerprint)
            if self.on_solve is not None:
                self.on_solve(seconds)

    # -- internals --------------------------------------------------------

    def _solve(self, problem: PlanningProblem) -> ExecutionPlan:
        if self.incremental is not None:
            return self.incremental.solve(problem)
        return self.planner.plan(problem)

    def _publish(self, fingerprint: str, plan: ExecutionPlan) -> None:
        if plan.solver_status == "optimal":
            self.cache.put(fingerprint, plan)

    def _bump(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()

    @property
    def lookups(self) -> int:
        return self.solves + self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
