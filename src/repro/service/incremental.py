"""The incremental solver: warm-started, delta-patched re-solves.

Sits between the service's :class:`~repro.service.pool.SolverPool` (its
one front end: ``repro serve --incremental``) and the LP substrate.  The
fleet re-plans cold through ``Planner.plan``.  The exact plan cache only
helps when a problem is byte-identical; this layer helps
when it is merely *shaped* the same — the replan hot path, where every
re-solve differs from the last only in prices, bounds and right-hand
sides.

Per structural fingerprint (:func:`~repro.service.fingerprint.
structural_fingerprint`) the solver retains the previously compiled
matrix, the previous integer assignment and — from the first re-plan on
— one persistent HiGHS LP holding that matrix
(:class:`repro.lp.scipy_backend.HotLP`).  A new problem with the same
shape is diffed against the retained matrix (:func:`repro.lp.incremental.
diff_compiled`); a pure-data delta is patched into the matrix and the LP
in place and the LP re-runs from the basis it last stopped at:

- **pure LP** — one hot re-run (exact: an LP optimum is an LP optimum,
  warm or cold);
- **MILP** — the previous integer assignment is re-certified under the
  new data with two hot runs of the same LP, flipping the integer
  columns' bounds in between: the *candidate* (integers pinned to the
  previous assignment) and the fresh *root relaxation bound*, each from
  its own retained basis.  The candidate is accepted when its gap to
  the bound is within the solver's own optimality tolerance — the
  configured ``mip_gap`` widened by the integrality gap the last cold
  optimum left (the root bound sits below the MIP optimum by roughly
  that much even when the candidate is exactly optimal), measured once,
  at the structure's first re-plan.  Anything else — structural change,
  infeasible candidate, certification failure — falls back to a cold
  branch & bound, which replaces the entry (and with it the LP).

``strict=True`` disables the memoized widening and the absolute floor,
and runs the LP at tolerances a tenth of its 1e-9 window, so a warm
answer is only accepted when *proven* optimal against the root bound to
1e-9 relative; the property tests run in this mode to pin exact
warm/cold equality.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.model_builder import BuiltModel, build_model
from ..core.plan import ExecutionPlan
from ..core.problem import PlanningProblem
from ..lp import scipy_backend
from ..lp.incremental import diff_compiled
from ..lp.model import CompiledModel, Solution, SolveStatus
from .cache import LRUCache
from .fingerprint import structural_fingerprint

__all__ = ["IncrementalSolver", "IncrementalStats"]

_EPS = 1e-9
#: How far over the root bound (relative, at least absolute) a strict
#: warm answer may be.
_STRICT_WINDOW = 1e-9


@dataclass
class IncrementalStats:
    """Hit/miss/fallback accounting for one :class:`IncrementalSolver`.

    Every solve lands in exactly one of the first four buckets.
    """

    #: Warm re-solves served from the retained structure.
    warm: int = 0
    #: Cold solves with no retained structure to start from.
    cold: int = 0
    #: Cold fallbacks because the shape changed (sparsity, horizon, ...).
    structural_fallbacks: int = 0
    #: Cold fallbacks because the warm candidate failed certification.
    rejected_fallbacks: int = 0

    @property
    def solves(self) -> int:
        return self.warm + self.cold + self.structural_fallbacks + self.rejected_fallbacks

    @property
    def warm_rate(self) -> float:
        return self.warm / self.solves if self.solves else 0.0


@dataclass
class _Entry:
    """Everything retained per structural fingerprint.

    ``compiled`` owns its data arrays (patching it must not reach the
    build it was copied from, let alone the cached layout) and is
    delta-patched in place on every shape-preserving re-solve, so diffs
    are always against the latest data and stay small.  ``lp`` holds the
    same data inside the solver; the two are only ever touched together,
    under ``lock``.
    """

    compiled: CompiledModel
    #: The integer columns and their values at the last cold optimum
    #: (the warm MILP candidate); empty for a pure LP.
    int_cols: np.ndarray
    int_values: np.ndarray
    #: Minimized-space objective of that cold optimum.
    cold_objective: float
    #: Basis of the last optimal relaxation run (for a pure LP: of the
    #: LP itself).
    relax_basis: object = None
    #: Basis of the last optimal pinned-candidate run.
    pinned_basis: object = None
    #: The persistent LP, loaded from ``compiled`` at the first warm use.
    lp: scipy_backend.HotLP | None = None
    #: Minimized-space gap ``cold_objective - root_bound`` measured at
    #: the first warm use; widens the warm acceptance window.
    gap_slack: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _Prepared:
    """One problem, built, with the entry retained for its key."""

    built: BuiltModel
    compiled: CompiledModel
    key: str
    entry: _Entry | None
    time_limit: float
    #: The entry's shape diverged from the problem's — the solve is then
    #: accounted as a structural fallback, not a plain cold.
    structural_fallback: bool = False


def _own_copy(compiled: CompiledModel) -> CompiledModel:
    """A copy safe to patch in place: its own data arrays (everything
    :meth:`~repro.lp.incremental.CompiledDelta.apply` writes), the
    structure arrays — sparsity pattern, integrality, names — shared.

    ``compile()`` hands out the model's own matrix; retaining that and
    patching it would corrupt the model it belongs to.
    """
    return replace(
        compiled,
        objective=compiled.objective.copy(),
        data=compiled.data.copy(),
        row_lb=compiled.row_lb.copy(),
        row_ub=compiled.row_ub.copy(),
        var_lb=compiled.var_lb.copy(),
        var_ub=compiled.var_ub.copy(),
    )


#: Headroom on the cold solve's own memoized gap (``gap_slack``) in the
#: warm acceptance window; see ``docs/solver.md``.
GAP_MARGIN = 1.25


class IncrementalSolver:
    """Delta-aware solver keyed by structural problem fingerprints.

    Duck-types ``Planner.plan`` via :meth:`solve` so front-ends can drop
    it in wherever a cold solve used to happen.  Thread-safe: a warm
    attempt (diff, patch, both LP runs) is atomic under its entry's
    lock, so threads re-planning one structure take turns on its LP and
    each reads the answer for its own data; model builds and cold solves
    run outside any lock.

    ``metrics`` (assignable any time) is an
    :class:`~repro.obs.registry.MetricsRegistry`; the solver bumps
    ``incremental.warm`` / ``incremental.cold`` /
    ``incremental.structural_fallback`` / ``incremental.rejected_fallback``
    counters on it.
    """

    def __init__(
        self,
        time_limit: float = 180.0,
        mip_gap: float = 0.01,
        capacity: int = 32,
        strict: bool = False,
        metrics=None,
    ) -> None:
        self.time_limit = time_limit
        self.mip_gap = mip_gap
        self.strict = strict
        self.metrics = metrics
        self.stats = IncrementalStats()
        self._entries: LRUCache[_Entry] = LRUCache(capacity)
        self._stats_lock = threading.Lock()

    # -- public -----------------------------------------------------------

    def solve(
        self, problem: PlanningProblem, time_limit: float | None = None
    ) -> ExecutionPlan:
        """Solve one problem, warm when the retained structure allows."""
        built = build_model(problem)
        key = structural_fingerprint(problem)
        prepared = _Prepared(
            built=built,
            compiled=built.model.compile(),
            key=key,
            entry=self._entries.get(key),
            time_limit=(
                self.time_limit
                if time_limit is None
                else max(1e-3, min(self.time_limit, time_limit))
            ),
        )
        kind = "cold"
        if prepared.entry is not None:
            plan = self._try_warm(prepared)
            if plan is not None:
                self._count("warm")
                return plan
            kind = (
                "structural_fallback"
                if prepared.structural_fallback
                else "rejected_fallback"
            )
        return self._solve_cold(prepared, kind)

    # -- warm path --------------------------------------------------------

    def _try_warm(self, prepared: _Prepared) -> ExecutionPlan | None:
        """One warm attempt; ``None`` means go cold."""
        start = time.perf_counter()
        with prepared.entry.lock:
            x = self._rerun(prepared)
        if x is None:
            return None
        return self._finish(prepared, x, time.perf_counter() - start)

    def _rerun(self, prepared: _Prepared) -> np.ndarray | None:
        """Diff against the retained matrix, patch it and its LP, re-run
        from the retained bases and certify — atomic under the entry's
        lock.  Returns the accepted column values."""
        entry, compiled = prepared.entry, prepared.compiled
        limit = prepared.time_limit
        delta = diff_compiled(entry.compiled, compiled)
        if delta is None:
            # Structural fingerprint collision or genuine shape change
            # under the same key: retire the stale entry.
            self._entries.remove(prepared.key)
            prepared.structural_fallback = True
            return None
        cols, pins = entry.int_cols, entry.int_values
        # The data change moved a bound past the assignment (capacity cut
        # below the allocated nodes): the candidate is infeasible by
        # inspection, go straight cold.
        if not self._pins_fit(entry, compiled):
            return None
        lp = entry.lp
        if lp is None:
            # Strict answers are certified to 1e-9: so are the LP runs.
            lp = entry.lp = scipy_backend.HotLP(
                entry.compiled, _STRICT_WINDOW if self.strict else 1.0
            )
            if len(cols) and not self.strict:
                # The root gap of the cold optimum, measured on the
                # matrix it was found on; seeds the relaxation basis too.
                root = lp.run(limit, entry.relax_basis)
                if root.status is SolveStatus.OPTIMAL:
                    entry.relax_basis = root.basis
                    entry.gap_slack = max(
                        0.0, entry.cold_objective - root.objective
                    )
        delta.apply(entry.compiled)
        lp.patch(delta)

        if not len(cols):  # a pure LP: an optimum is an optimum, warm or cold
            run = lp.run(limit, entry.relax_basis)
            if run.status is not SolveStatus.OPTIMAL:
                return None
            entry.relax_basis = run.basis
            return run.x

        # The candidate (integers pinned) first: it is the run that
        # fails, and a failed candidate needs no bound.
        lp.set_col_bounds(cols, pins, pins)
        cand = lp.run(limit, entry.pinned_basis)
        if cand.status is not SolveStatus.OPTIMAL:
            return None
        entry.pinned_basis = cand.basis
        lp.set_col_bounds(cols, compiled.var_lb[cols], compiled.var_ub[cols])
        bound = lp.run(limit, entry.relax_basis)
        if bound.status is not SolveStatus.OPTIMAL:
            return None
        entry.relax_basis = bound.basis

        # Accept when the gap to the fresh root bound is within the
        # solver's own optimality tolerance.
        window = _STRICT_WINDOW * max(1.0, abs(cand.objective))
        if not self.strict:
            window = max(
                self.mip_gap * abs(cand.objective),
                GAP_MARGIN * entry.gap_slack,
                window,
            ) + _EPS
        if cand.objective - bound.objective > window:
            return None
        # Snap the pinned columns back to exact integers (the LP solver
        # returns them within feasibility tolerance of the pin).
        cand.x[cols] = pins
        return cand.x

    @staticmethod
    def _pins_fit(entry: _Entry, compiled: CompiledModel) -> bool:
        """Whether the retained integer assignment is within the new
        column bounds."""
        cols, pins = entry.int_cols, entry.int_values
        return bool(
            np.all(compiled.var_lb[cols] - _EPS <= pins)
            and np.all(pins <= compiled.var_ub[cols] + _EPS)
        )

    def _finish(
        self, prepared: _Prepared, x: np.ndarray, seconds: float
    ) -> ExecutionPlan:
        """Assemble a Solution over the new model and extract the plan.

        The fresh matrix has the retained one's columns (that is what
        ``diff_compiled`` certifies), so ``x`` is a column vector of the
        new model as it stands.
        """
        solution = Solution(
            status=SolveStatus.OPTIMAL,
            objective=prepared.compiled.solution_objective(x),
            x=x,
            solve_seconds=seconds,
            backend="incremental",
        )
        return prepared.built.extract_plan(solution)

    # -- cold path --------------------------------------------------------

    def _solve_cold(self, prepared: _Prepared, kind: str) -> ExecutionPlan:
        """Branch & bound from scratch, accounted under ``kind``."""
        built = prepared.built
        solution = built.solve(prepared.time_limit, self.mip_gap)
        self._count(kind)
        if solution.status is SolveStatus.OPTIMAL:
            self._retain(prepared, solution)
        return built.extract_plan(solution)

    def _retain(self, prepared: _Prepared, solution: Solution) -> None:
        """Memoize a fresh cold optimum as the next warm starting point."""
        compiled = prepared.compiled
        int_cols = np.flatnonzero(compiled.integrality)
        self._entries.put(
            prepared.key,
            _Entry(
                compiled=_own_copy(compiled),
                int_cols=int_cols,
                int_values=np.rint(solution.x[int_cols]),
                cold_objective=(
                    -solution.objective if compiled.negated else solution.objective
                ),
            ),
        )

    # -- accounting -------------------------------------------------------

    def _count(self, kind: str) -> None:
        with self._stats_lock:
            if kind == "warm":
                self.stats.warm += 1
            elif kind == "cold":
                self.stats.cold += 1
            elif kind == "structural_fallback":
                self.stats.structural_fallbacks += 1
            elif kind == "rejected_fallback":
                self.stats.rejected_fallbacks += 1
        self._bump(f"incremental.{kind}")

    def _bump(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()
