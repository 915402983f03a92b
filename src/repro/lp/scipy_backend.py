"""Solver backend built on ``scipy.optimize.milp`` (HiGHS).

Stands in for the CPLEX 11.2.1 solver used by the paper (Section 4.8).  The
backend consumes a :class:`repro.lp.model.CompiledModel`, converts it to the
sparse form HiGHS expects, and maps the result back onto model variables.

:func:`solve` is the cold path (branch & bound through ``milp``).
:class:`HotLP` is the hot one: a persistent native HiGHS LP that the
incremental solver patches in place and re-runs from a retained basis.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import sys
import tempfile
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .incremental import CompiledDelta
from .model import CompiledModel, Solution, SolveStatus


def _resolve_bindings():
    """The native HiGHS bindings module and its solver class.

    ``highspy`` when importable, else the core scipy vendors (the one
    ``milp`` itself calls), else ``(None, None)``.
    """
    for name in ("highspy", "scipy.optimize._highspy._core"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        highs = getattr(module, "Highs", None) or getattr(module, "_Highs", None)
        if highs is not None:
            return module, highs
    return None, None


_hs, _Highs = _resolve_bindings()

#: Whether :class:`HotLP` is usable, i.e. a native binding resolved at
#: import.  ``milp`` never exposes a basis, so without one the
#: incremental solver certifies warm candidates with from-scratch
#: :func:`solve` calls instead.
HAS_BASIS = _Highs is not None


#: Overlapping ``_muted_stdout`` entries (solver threads run cold solves
#: concurrently) and what the first of them set aside: the fd it
#: redirected and a dup of where that fd really pointed.
_mute_lock = threading.Lock()
_mute_depth = 0
_mute_saved: tuple[int, int] | None = None


@contextlib.contextmanager
def _muted_stdout():
    """Silence HiGHS's C-level printf noise during a solve.

    HiGHS 1.x prints internal notes (e.g. ``HighsMipSolverData::...``)
    straight to file descriptor 1, bypassing ``sys.stdout``; redirect
    the fd itself for the duration of the call.  The fd is process-wide,
    so overlapping solves share one redirection: the first entrant points
    it at a sink, the last leaver restores it.  Pytest's capture can
    replace ``sys.stdout`` with an object without ``fileno``; fall back
    to no-op muting there (the noise only matters on real terminals).
    """
    global _mute_depth, _mute_saved
    try:
        stdout_fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        yield
        return
    with _mute_lock:
        if _mute_depth == 0:
            sys.stdout.flush()
            _mute_saved = (stdout_fd, os.dup(stdout_fd))
            with tempfile.TemporaryFile() as sink:
                os.dup2(sink.fileno(), stdout_fd)
        _mute_depth += 1
    try:
        yield
    finally:
        with _mute_lock:
            _mute_depth -= 1
            if _mute_depth == 0:
                muted_fd, saved_fd = _mute_saved
                sys.stdout.flush()
                os.dup2(saved_fd, muted_fd)
                os.close(saved_fd)


#: HiGHS status codes (scipy's ``result.status``) mapped to our statuses.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,  # iteration/time limit with incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve(
    compiled: CompiledModel,
    time_limit: float | None = None,
    mip_gap: float = 0.01,
) -> Solution:
    """Solve a compiled model and return a :class:`Solution`.

    The returned solution carries ``x``, one cleaned value per compiled
    column (lowering columns included); mapping it back onto variables
    is the model's business.
    """
    n = compiled.num_vars
    constraints = []
    if compiled.num_rows:
        matrix = sparse.csr_matrix(
            (compiled.data, compiled.indices, compiled.indptr),
            shape=(compiled.num_rows, n),
        )
        constraints.append(LinearConstraint(matrix, compiled.row_lb, compiled.row_ub))

    options: dict[str, float] = {"mip_rel_gap": mip_gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    with _muted_stdout():
        result = milp(
            c=compiled.objective,
            constraints=constraints,
            bounds=Bounds(compiled.var_lb, compiled.var_ub),
            integrality=compiled.integrality.astype(np.int8),
            options=options,
        )

    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    if status.has_solution and result.x is None:  # limit hit with no incumbent
        status = SolveStatus.ERROR
    solution = Solution(status=status, backend="scipy-highs", message=result.message or "")
    if status.has_solution:
        solution.x = _clean(np.asarray(result.x, dtype=float), compiled.integrality)
        objective = float(result.fun) + compiled.objective_offset
        solution.objective = -objective if compiled.negated else objective
    return solution


def _clean(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Snap solver noise: integral columns to ints, tiny values to zero."""
    return np.where(integrality, np.rint(x), np.where(np.abs(x) < 1e-9, 0.0, x))


@dataclass
class LPRun:
    """Outcome of one LP run of a retained structure."""

    status: SolveStatus
    #: Minimized-space objective, offset included.
    objective: float = math.nan
    #: One value per compiled column (tiny values snapped to zero).
    x: np.ndarray | None = None
    #: Opaque optimal basis; hand it back to ``run`` to restart from it.
    basis: object = None


class HotLP:
    """One persistent native HiGHS LP: the relaxation of a compiled model.

    Loaded once per retained structure (integrality dropped, presolve
    off so the basis refers to the model as given), then patched with
    each :class:`~repro.lp.incremental.CompiledDelta` and re-run from a
    basis an earlier run returned.  Not thread-safe: the owner serializes
    patch + run.  Never writes to fd 1 (``output_flag`` off, no MIP code).
    """

    def __init__(self, compiled: CompiledModel) -> None:
        n = compiled.num_vars
        lp = _hs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = compiled.num_rows
        lp.col_cost_ = compiled.objective
        lp.offset_ = compiled.objective_offset
        lp.col_lower_ = compiled.var_lb
        lp.col_upper_ = compiled.var_ub
        lp.row_lower_ = compiled.row_lb
        lp.row_upper_ = compiled.row_ub
        lp.a_matrix_.format_ = _hs.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = compiled.indptr
        lp.a_matrix_.index_ = compiled.indices
        lp.a_matrix_.value_ = compiled.data
        self._h = h = _Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        # Scaling is recomputed after every bound change, which turns the
        # retained basis into a ~100-iteration restart; unscaled, an
        # unchanged LP restarts in zero iterations.
        h.setOptionValue("simplex_scale_strategy", 0)
        h.passModel(lp)
        self._all_cols = np.arange(n, dtype=np.int32)

    def patch(self, delta: CompiledDelta) -> None:
        """Apply a pure-data delta to the loaded LP."""
        h = self._h
        if len(delta.cols):
            self.set_col_bounds(delta.cols, delta.col_lb, delta.col_ub)
        for row, lo, hi in zip(
            delta.rows.tolist(), delta.row_lb.tolist(), delta.row_ub.tolist()
        ):
            h.changeRowBounds(row, lo, hi)
        for row, col, coef in zip(
            delta.entry_rows.tolist(), delta.entry_cols.tolist(), delta.coefs.tolist()
        ):
            h.changeCoeff(row, col, coef)
        if delta.objective is not None:
            h.changeColsCost(len(self._all_cols), self._all_cols, delta.objective)
        if delta.objective_offset is not None:
            h.changeObjectiveOffset(delta.objective_offset)

    def set_col_bounds(self, cols, lower, upper) -> None:
        """Overwrite the bounds of ``cols`` (pin or release integers)."""
        self._h.changeColsBounds(
            len(cols),
            np.asarray(cols, dtype=np.int32),
            np.asarray(lower, dtype=float),
            np.asarray(upper, dtype=float),
        )

    def run(self, time_limit: float | None = None, basis: object = None) -> LPRun:
        """Re-run the LP, from ``basis`` when given."""
        h = self._h
        # HiGHS's run clock is cumulative per instance, so the limit is
        # re-based on every run or a long-lived instance would expire.
        h.setOptionValue(
            "time_limit",
            math.inf if time_limit is None else h.getRunTime() + float(time_limit),
        )
        if basis is not None:
            h.setBasis(basis)
        h.run()
        status = _HOT_STATUS.get(h.getModelStatus(), SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL:
            return LPRun(status)
        x = np.asarray(h.getSolution().col_value, dtype=float)
        x[np.abs(x) < 1e-9] = 0.0
        return LPRun(status, float(h.getObjectiveValue()), x, h.getBasis())


_HOT_STATUS = {} if _hs is None else {
    _hs.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _hs.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _hs.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    _hs.HighsModelStatus.kUnboundedOrInfeasible: SolveStatus.UNBOUNDED,
}
