"""Solver backend: HiGHS through the native binding scipy vendors.

Stands in for the CPLEX 11.2.1 solver used by the paper (Section 4.8).  The
backend loads a :class:`repro.lp.model.CompiledModel`'s arrays into one
HiGHS instance (:func:`_load`), runs it and maps the result back onto
compiled columns.

:func:`solve` is the cold path: the LP relaxation, then branch & bound
unless the relaxation's optimum already is integral.  :class:`HotLP` is
the hot one: a persistent LP that the incremental solver patches in
place and re-runs from a retained basis.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .incremental import CompiledDelta
from .model import CompiledModel, Solution, SolveStatus

#: The binding's full module name: pybind11 registers its types once per
#: process, so every importer must share the one module object.
_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """The HiGHS binding, loaded from its file in ``scipy/optimize/_highspy/``.

    Importing it by name would first run ``scipy.optimize``'s
    ``__init__`` (linprog, shgo, ``scipy.linalg``, ``scipy.special``...),
    which is most of a process's start-up time and memory and none of its
    solves.  A module already in ``sys.modules`` under the full name (a
    caller imported ``scipy.optimize`` first) is reused; a ``None`` entry
    or a missing file is the missing binding.
    """
    binding = sys.modules.get(_BINDING)
    if binding is not None:
        return binding
    missing = ImportError(
        "repro.lp needs the HiGHS binding scipy vendors "
        f"({_BINDING}); install scipy>=1.15"
    )
    if _BINDING in sys.modules:
        raise missing
    try:
        import scipy
    except ImportError as exc:
        raise missing from exc
    directory = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise missing
    spec = importlib.util.spec_from_file_location(_BINDING, path)
    try:
        binding = importlib.util.module_from_spec(spec)
        sys.modules[_BINDING] = binding
        spec.loader.exec_module(binding)
    except ImportError as exc:
        sys.modules.pop(_BINDING, None)
        raise missing from exc
    return binding


_hs = _load_binding()


#: Overlapping ``_muted_stdout`` entries (solver threads run cold solves
#: concurrently) and what the first of them set aside: the fd it
#: redirected and a dup of where that fd really pointed.
_mute_lock = threading.Lock()
_mute_depth = 0
_mute_saved: tuple[int, int] | None = None


@contextlib.contextmanager
def _muted_stdout():
    """Silence HiGHS's C-level printf noise during a solve.

    HiGHS's MIP solver prints internal notes straight to file descriptor
    1 even with ``output_flag`` off (measured: the cold_grid cell
    public/8gb/4h prints a ``HighsMipSolverData::
    transformNewIntegerFeasibleSolution`` line), bypassing
    ``sys.stdout``; redirect the fd itself for the duration of the call.  The fd is process-wide, so
    overlapping solves share one redirection: the first entrant points it
    at a sink, the last leaver restores it.  Pytest's capture can replace
    ``sys.stdout`` with an object without ``fileno``; fall back to no-op
    muting there (the noise only matters on real terminals).
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
            sink = os.open(os.devnull, os.O_WRONLY)
            os.dup2(sink, stdout_fd)
            os.close(sink)
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


_INTEGER, _CONTINUOUS = _hs.HighsVarType.kInteger, _hs.HighsVarType.kContinuous


#: HiGHS's absolute tolerances with their defaults, whatever gap was
#: asked for: branch & bound stops and prunes within the first two, an
#: LP calls a point feasible and optimal within the next two, and
#: numbers up to the last count as zero.
_TOLERANCES = {
    "mip_abs_gap": 1e-6,
    "mip_feasibility_tolerance": 1e-6,
    "primal_feasibility_tolerance": 1e-7,
    "dual_feasibility_tolerance": 1e-7,
    "small_matrix_value": 1e-9,
}
#: The smallest feasibility tolerance HiGHS accepts.
_TOLERANCE_FLOOR = 1e-10


def _load(compiled: CompiledModel, integral: bool, resolve: float = 1.0):
    """A fresh HiGHS instance holding ``compiled`` with its output off;
    its LP relaxation unless ``integral``.

    A MIP is loaded without the objective offset: HiGHS measures
    ``mip_rel_gap`` on the objective it holds, so a constant (min-time
    goals carry one) would move where branch & bound stops.  Every
    tolerance of :data:`_TOLERANCES` above a tenth of ``resolve`` (the
    gap the caller must tell apart) is tightened to that, so a 1e-9 gap
    is not lost in 1e-6 and 1e-9 ones; the paper's 1 % leaves every
    default alone.
    """
    lp = _hs.HighsLp()
    lp.num_col_ = compiled.num_vars
    lp.num_row_ = compiled.num_rows
    lp.col_cost_ = compiled.objective
    if not integral:
        lp.offset_ = compiled.objective_offset
    lp.col_lower_ = compiled.var_lb
    lp.col_upper_ = compiled.var_ub
    lp.row_lower_ = compiled.row_lb
    lp.row_upper_ = compiled.row_ub
    lp.a_matrix_.format_ = _hs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = compiled.indptr
    lp.a_matrix_.index_ = compiled.indices
    lp.a_matrix_.value_ = compiled.data
    if integral and compiled.integrality.any():
        lp.integrality_ = [
            _INTEGER if flag else _CONTINUOUS
            for flag in compiled.integrality.tolist()
        ]
    h = _hs._Highs()
    h.setOptionValue("output_flag", False)
    tolerance = max(resolve / 10, _TOLERANCE_FLOOR)
    for option, default in _TOLERANCES.items():
        if tolerance < default:
            h.setOptionValue(option, tolerance)
    h.passModel(lp)
    return h


#: HiGHS model statuses mapped to ours; anything else is an ``ERROR``.
#: A limit counts as ``FEASIBLE`` only with an incumbent (:func:`_status`).
#: One table for the cold and the hot path.
_STATUS = {
    _hs.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _hs.HighsModelStatus.kTimeLimit: SolveStatus.FEASIBLE,
    _hs.HighsModelStatus.kIterationLimit: SolveStatus.FEASIBLE,
    _hs.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _hs.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}


def _status(h, mip: bool) -> SolveStatus:
    """What a finished run of ``h`` means.

    Only branch & bound (``mip``) keeps an incumbent: an LP stopped at a
    limit holds a point nothing has certified, which is an ``ERROR``.
    """
    status = _STATUS.get(h.getModelStatus(), SolveStatus.ERROR)
    if status is SolveStatus.FEASIBLE and not (
        mip and h.getInfo().primal_solution_status == _hs.kSolutionStatusFeasible
    ):
        return SolveStatus.ERROR  # limit hit with no incumbent
    return status


def solve(
    compiled: CompiledModel,
    time_limit: float | None = None,
    mip_gap: float = 0.01,
) -> Solution:
    """Solve a compiled model and return a :class:`Solution`.

    A model with integer columns first runs its LP relaxation; when that
    optimum is integral (:func:`_integral_root`) it is the answer, with
    ``mip_node_count`` 0.  Otherwise branch & bound runs on what is left
    of ``time_limit``.

    The returned solution carries ``x``, one cleaned value per column.
    """
    mip = bool(compiled.integrality.any())
    with _muted_stdout():
        if mip:
            start = time.perf_counter()
            root = _integral_root(compiled, time_limit, mip_gap)
            if root is not None:
                return root
            if time_limit is not None:
                time_limit = max(0.0, time_limit - (time.perf_counter() - start))
        h = _load(compiled, integral=True, resolve=mip_gap)
        h.setOptionValue("mip_rel_gap", mip_gap)
        if time_limit is not None:
            h.setOptionValue("time_limit", float(time_limit))
        h.run()

    status = _status(h, mip=mip)
    info = h.getInfo()
    solution = Solution(
        status=status,
        backend="scipy-highs",
        message=h.modelStatusToString(h.getModelStatus()),
        mip_node_count=max(0, info.mip_node_count),
    )
    if status.has_solution:
        solution.x = _clean(
            np.asarray(h.getSolution().col_value, dtype=float), compiled.integrality
        )
        objective = info.objective_function_value + compiled.objective_offset
        solution.objective = -objective if compiled.negated else objective
    return solution


#: How far a relaxation's point may sit from integral and outside its
#: column and row bounds and still certify (HiGHS's MIP feasibility
#: tolerance).
_ROOT_TOL = 1e-6


def _integral_root(
    compiled: CompiledModel, time_limit: float | None, mip_gap: float
) -> Solution | None:
    """The LP relaxation's optimum, if it already is a MIP optimum.

    The relaxation's optimum bounds every integer point from below.  If
    its integer columns are integral and the snapped point still meets
    the column and row bounds, no integer point is cheaper: branch &
    bound would only re-prove it, at zero gap.  ``None`` otherwise.
    """
    h = _load(compiled, integral=False, resolve=mip_gap)
    if time_limit is not None:
        h.setOptionValue("time_limit", float(time_limit))
    h.run()
    if _status(h, mip=False) is not SolveStatus.OPTIMAL:
        return None
    raw = np.asarray(h.getSolution().col_value, dtype=float)
    x = _clean(raw, compiled.integrality)
    rows = np.repeat(np.arange(compiled.num_rows), np.diff(compiled.indptr))
    activity = np.bincount(
        rows, weights=compiled.data * x[compiled.indices], minlength=compiled.num_rows
    )
    certified = (
        np.abs(x - raw).max(initial=0.0) <= _ROOT_TOL
        and _within(x, compiled.var_lb, compiled.var_ub)
        and _within(activity, compiled.row_lb, compiled.row_ub)
    )
    if not certified:
        return None
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=compiled.solution_objective(x),
        x=x,
        backend="scipy-highs",
        message=h.modelStatusToString(h.getModelStatus()),
        mip_node_count=0,
    )


def _within(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> bool:
    """``lower <= values <= upper`` elementwise, to :data:`_ROOT_TOL`."""
    return bool(((values >= lower - _ROOT_TOL) & (values <= upper + _ROOT_TOL)).all())


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
    ``resolve`` is the gap its runs must tell apart (:func:`_load`).
    """

    def __init__(self, compiled: CompiledModel, resolve: float = 1.0) -> None:
        self._h = h = _load(compiled, integral=False, resolve=resolve)
        h.setOptionValue("presolve", "off")
        # Scaling is recomputed after every bound change, which turns the
        # retained basis into a ~100-iteration restart; unscaled, an
        # unchanged LP restarts in zero iterations.
        h.setOptionValue("simplex_scale_strategy", 0)
        self._all_cols = np.arange(compiled.num_vars, dtype=np.int32)

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
        status = _status(h, mip=False)
        if status is not SolveStatus.OPTIMAL:
            return LPRun(status)
        x = np.asarray(h.getSolution().col_value, dtype=float)
        x[np.abs(x) < 1e-9] = 0.0
        return LPRun(status, float(h.getObjectiveValue()), x, h.getBasis())
