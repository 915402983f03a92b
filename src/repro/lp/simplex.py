"""Pure-Python two-phase primal simplex on a dense tableau.

The reference oracle the tests cross-check HiGHS against: it solves
``min c x  s.t.  A x = b, x >= 0`` after the caller converts general bounds
and inequality rows to standard form (see :mod:`repro.lp.simplex_backend`).
It uses Bland's rule to guarantee termination and only handles the small
models those tests build — nothing on the planning path calls it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class SimplexResult:
    status: LpStatus
    objective: float = math.nan
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0


_EPS = 1e-9


def solve_standard_form(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iterations: int = 20_000,
) -> SimplexResult:
    """Solve ``min c x  s.t.  a_eq x = b_eq, x >= 0``.

    Phase 1 drives artificial variables out of the basis; phase 2 optimizes
    the real objective.  Rows with negative right-hand side are flipped so
    artificials start feasible.
    """
    a = np.array(a_eq, dtype=float, copy=True)
    b = np.array(b_eq, dtype=float, copy=True)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent simplex dimensions")

    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # Phase 1 tableau: [A | I] with artificial objective = sum(artificials).
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])

    iterations = _optimize(tableau, basis, phase1_cost, max_iterations)
    if iterations < 0:
        return SimplexResult(LpStatus.ITERATION_LIMIT)
    phase1_value = _objective_value(tableau, basis, phase1_cost)
    if phase1_value > 1e-7:
        return SimplexResult(LpStatus.INFEASIBLE, iterations=iterations)

    # Pivot remaining artificial variables out of the basis where possible;
    # rows that cannot pivot are redundant and are dropped.
    keep_rows = []
    for row, bv in enumerate(basis):
        if bv < n:
            keep_rows.append(row)
            continue
        pivot_col = next(
            (j for j in range(n) if abs(tableau[row, j]) > _EPS), None
        )
        if pivot_col is None:
            continue  # redundant row
        _pivot(tableau, row, pivot_col)
        basis[row] = pivot_col
        keep_rows.append(row)

    if len(keep_rows) != m:
        tableau = tableau[keep_rows]
        basis = [basis[r] for r in keep_rows]

    # Phase 2 on the real objective, artificial columns removed.
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    phase2_cost = np.concatenate([c, [0.0]])
    more = _optimize(tableau, basis, phase2_cost, max_iterations)
    if more < 0:
        return SimplexResult(LpStatus.ITERATION_LIMIT, iterations=iterations)
    if more == math.inf:
        return SimplexResult(LpStatus.UNBOUNDED, iterations=iterations)

    x = np.zeros(n)
    for row, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[row, -1]
    return SimplexResult(
        LpStatus.OPTIMAL,
        objective=float(c @ x),
        x=x,
        iterations=iterations + int(more),
    )


def _optimize(
    tableau: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    max_iterations: int,
) -> float:
    """Run primal simplex pivots in place.

    Returns the number of iterations, ``-1`` on iteration limit, or
    ``math.inf`` if the problem is unbounded in the given objective.
    """
    num_cols = tableau.shape[1] - 1
    for iteration in range(max_iterations):
        reduced = _reduced_costs(tableau, basis, cost)
        entering = next(
            (j for j in range(num_cols) if reduced[j] < -1e-9), None
        )  # Bland: smallest index
        if entering is None:
            return iteration
        column = tableau[:, entering]
        rhs = tableau[:, -1]
        best_row, best_ratio = None, math.inf
        for row in range(tableau.shape[0]):
            if column[row] > _EPS:
                ratio = rhs[row] / column[row]
                if ratio < best_ratio - _EPS or (
                    abs(ratio - best_ratio) <= _EPS
                    and best_row is not None
                    and basis[row] < basis[best_row]
                ):
                    best_row, best_ratio = row, ratio
        if best_row is None:
            return math.inf
        _pivot(tableau, best_row, entering)
        basis[best_row] = entering
    return -1


def _reduced_costs(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> np.ndarray:
    basic_cost = cost[basis]
    return cost[:-1] - basic_cost @ tableau[:, :-1]


def _objective_value(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> float:
    return float(cost[basis] @ tableau[:, -1])


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _EPS:
            tableau[r] -= tableau[r, col] * tableau[row]
