"""Pure-Python backend: standard-form conversion + branch & bound.

Converts a :class:`repro.lp.model.CompiledModel` (ranged rows, general
bounds, integrality flags) into the equality standard form consumed by
:mod:`repro.lp.simplex`, and layers a best-first branch & bound on top for
integer columns.  The reference oracle ``tests/lp`` cross-checks the HiGHS
backend against; :meth:`Model.solve` never dispatches here.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import CompiledModel, Solution, SolveStatus, SolverError
from .simplex import LpStatus, solve_standard_form

_INT_TOL = 1e-6


@dataclass
class _StandardForm:
    """min c x, A x = b, x >= 0 plus the recipe to map x back to columns."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    shift: np.ndarray  # original = standard + shift (per original column)
    num_original: int


def solve(compiled: CompiledModel, time_limit: float | None = None) -> Solution:
    """Solve a compiled model with the pure-Python engine."""
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if compiled.integrality.any():
        return _branch_and_bound(compiled, deadline)
    status, objective, values = _solve_relaxation(compiled, {}, {})
    solution = Solution(status=status, backend="simplex")
    if status.has_solution:
        solution.x = values
        solution.objective = _signed_objective(compiled, objective)
    return solution


def _signed_objective(compiled: CompiledModel, minimized: float) -> float:
    return -minimized if compiled.negated else minimized


def _solve_relaxation(
    compiled: CompiledModel,
    extra_lb: dict[int, float],
    extra_ub: dict[int, float],
) -> tuple[SolveStatus, float, np.ndarray]:
    """Solve the LP relaxation with branching bounds layered on top."""
    form = _to_standard_form(compiled, extra_lb, extra_ub)
    if form is None:
        return SolveStatus.INFEASIBLE, math.nan, np.zeros(0)
    result = solve_standard_form(form.c, form.a, form.b)
    if result.status is LpStatus.INFEASIBLE:
        return SolveStatus.INFEASIBLE, math.nan, np.zeros(0)
    if result.status is LpStatus.UNBOUNDED:
        return SolveStatus.UNBOUNDED, math.nan, np.zeros(0)
    if result.status is LpStatus.ITERATION_LIMIT:
        raise SolverError("simplex iteration limit exceeded")
    x = result.x[: form.num_original] + form.shift
    return SolveStatus.OPTIMAL, result.objective + float(
        compiled.objective_offset
    ) + float(compiled.objective @ form.shift), x


def _to_standard_form(
    compiled: CompiledModel,
    extra_lb: dict[int, float],
    extra_ub: dict[int, float],
) -> _StandardForm | None:
    """Build equality standard form; ``None`` when bounds cross (infeasible).

    Each original column is shifted by its lower bound so the standard-form
    variable is non-negative; finite upper bounds and ranged constraint rows
    become extra rows with slack columns.
    """
    n = compiled.num_vars
    lb = compiled.var_lb.copy()
    ub = compiled.var_ub.copy()
    for col, bound in extra_lb.items():
        lb[col] = max(lb[col], bound)
    for col, bound in extra_ub.items():
        ub[col] = min(ub[col], bound)
    if np.any(lb > ub + 1e-12):
        return None
    if np.any(~np.isfinite(lb)):
        raise SolverError("simplex backend requires finite lower bounds")

    shift = lb
    rows: list[tuple[dict[int, float], float, float]] = []
    for r in range(compiled.num_rows):
        span = slice(compiled.indptr[r], compiled.indptr[r + 1])
        row = dict(zip(compiled.indices[span].tolist(), compiled.data[span].tolist()))
        base = sum(coef * shift[col] for col, coef in row.items())
        rows.append((row, compiled.row_lb[r] - base, compiled.row_ub[r] - base))
    for col in range(n):
        if math.isfinite(ub[col]):
            rows.append(({col: 1.0}, -math.inf, ub[col] - shift[col]))

    # Count slack columns: one per non-equality side.
    slacks = []
    for _, lo, hi in rows:
        if math.isfinite(lo) and math.isfinite(hi) and abs(hi - lo) < 1e-12:
            slacks.append(0)
        elif math.isfinite(hi) and not math.isfinite(lo):
            slacks.append(1)  # <= : positive slack
        elif math.isfinite(lo) and not math.isfinite(hi):
            slacks.append(-1)  # >= : surplus
        else:
            slacks.append(2)  # ranged: lower as >=, upper as <= (two rows)

    num_rows = sum(2 if s == 2 else 1 for s in slacks)
    num_slack = sum(abs(s) if s != 2 else 2 for s in slacks)
    a = np.zeros((num_rows, n + num_slack))
    b = np.zeros(num_rows)
    r_out = 0
    s_out = n
    for (row, lo, hi), kind in zip(rows, slacks):
        if kind == 0:
            for col, coef in row.items():
                a[r_out, col] = coef
            b[r_out] = hi
            r_out += 1
        elif kind == 1:
            for col, coef in row.items():
                a[r_out, col] = coef
            a[r_out, s_out] = 1.0
            b[r_out] = hi
            r_out += 1
            s_out += 1
        elif kind == -1:
            for col, coef in row.items():
                a[r_out, col] = coef
            a[r_out, s_out] = -1.0
            b[r_out] = lo
            r_out += 1
            s_out += 1
        else:
            for col, coef in row.items():
                a[r_out, col] = coef
                a[r_out + 1, col] = coef
            a[r_out, s_out] = -1.0
            b[r_out] = lo
            a[r_out + 1, s_out + 1] = 1.0
            b[r_out + 1] = hi
            r_out += 2
            s_out += 2

    c = np.zeros(n + num_slack)
    c[:n] = compiled.objective
    return _StandardForm(c=c, a=a, b=b, shift=shift, num_original=n)


def _branch_and_bound(compiled: CompiledModel, deadline: float | None) -> Solution:
    """Best-first branch & bound over the simplex relaxation."""
    counter = itertools.count()
    status, bound, x = _solve_relaxation(compiled, {}, {})
    if not status.has_solution:
        return Solution(status=status, backend="simplex-bb")

    heap: list[tuple[float, int, dict[int, float], dict[int, float]]] = []
    heapq.heappush(heap, (bound, next(counter), {}, {}))
    best_objective = math.inf
    best_x: np.ndarray | None = None
    timed_out = False

    while heap:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        node_bound, _, node_lb, node_ub = heapq.heappop(heap)
        if node_bound >= best_objective - 1e-9:
            continue
        status, objective, x = _solve_relaxation(compiled, node_lb, node_ub)
        if status is not SolveStatus.OPTIMAL or objective >= best_objective - 1e-9:
            continue
        frac_col = _most_fractional(compiled, x)
        if frac_col is None:
            best_objective = objective
            best_x = x
            continue
        value = x[frac_col]
        down_ub = dict(node_ub)
        down_ub[frac_col] = math.floor(value + _INT_TOL)
        up_lb = dict(node_lb)
        up_lb[frac_col] = math.ceil(value - _INT_TOL)
        heapq.heappush(heap, (objective, next(counter), node_lb, down_ub))
        heapq.heappush(heap, (objective, next(counter), up_lb, node_ub))

    if best_x is None:
        if timed_out:
            return Solution(status=SolveStatus.ERROR, backend="simplex-bb",
                            message="time limit before first incumbent")
        return Solution(status=SolveStatus.INFEASIBLE, backend="simplex-bb")

    rounded = best_x.copy()
    for col, is_int in enumerate(compiled.integrality):
        if is_int:
            rounded[col] = round(rounded[col])
    solution = Solution(
        status=SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL,
        backend="simplex-bb",
    )
    solution.x = rounded
    solution.objective = _signed_objective(compiled, best_objective)
    return solution


def _most_fractional(compiled: CompiledModel, x: np.ndarray) -> int | None:
    """Column whose value is farthest from integral, or ``None`` if none."""
    best_col, best_frac = None, _INT_TOL
    for col, is_int in enumerate(compiled.integrality):
        if not is_int:
            continue
        frac = abs(x[col] - round(x[col]))
        if frac > best_frac:
            best_col, best_frac = col, frac
    return best_col
