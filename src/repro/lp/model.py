"""The matrix form of an LP/MILP, the model built in it, and solutions.

A :class:`CompiledModel` is the one form every backend, the differ and
the incremental solver read and write: dense bound/cost vectors and a
CSR constraint matrix.  A :class:`MatrixModel` is a model built in that
form — the planner's builder fills the arrays directly — and solves
through scipy/HiGHS (:mod:`repro.lp.scipy_backend`), the substrate
standing in for CPLEX in the paper (Section 4.8).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    #: Feasible but not proven optimal (time/iteration limit hit, mirroring
    #: the paper's three-minute CPLEX cut-off, Section 4.8).
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


class SolverError(RuntimeError):
    """Raised when a backend cannot process the model at all."""


@dataclass
class Solution:
    """Result of a solve: status, objective value and column values."""

    status: SolveStatus
    objective: float = math.nan
    #: One value per column.
    x: np.ndarray | None = None
    solve_seconds: float = 0.0
    backend: str = ""
    message: str = ""
    #: Branch & bound nodes HiGHS explored: 0 for a pure LP, and for a
    #: MILP whose root relaxation was integral (no branch & bound ran).
    mip_node_count: int = 0

    def __bool__(self) -> bool:
        return self.status.has_solution


@dataclass
class CompiledModel:
    """Matrix form of a model, consumed by backends.

    All constraints are expressed as ``row_lb <= A x <= row_ub`` with
    ``A`` in CSR form (``indptr``/``indices``/``data``; column indices
    ascending within a row, exact-zero coefficients dropped).  The
    objective is always a minimization of ``objective @ x`` (a
    maximization is stored negated, with ``negated`` set).  Backends treat every array as
    read-only; whoever patches one in place owns a private copy.
    """

    num_vars: int
    objective: np.ndarray
    objective_offset: float
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    #: Column identity: one name per column.
    col_names: tuple[str, ...]
    negated: bool

    @property
    def num_rows(self) -> int:
        return len(self.row_lb)

    def solution_objective(self, x: np.ndarray) -> float:
        """The model's own objective (sense restored) at ``x``."""
        minimized = float(self.objective @ x) + self.objective_offset
        return -minimized if self.negated else minimized


class MatrixModel:
    """A model built directly in matrix form.

    What :func:`repro.core.model_builder.build_model` hands out: the
    :class:`CompiledModel` it filled plus the row names and a size
    summary; the ``.lp``/``.mps`` writers read its arrays.
    """

    def __init__(
        self,
        name: str,
        compiled: CompiledModel,
        row_names: tuple[str, ...],
        stats: dict[str, int],
    ) -> None:
        self.name = name
        self.row_names = row_names
        self._compiled = compiled
        self._stats = stats

    def compile(self) -> CompiledModel:
        """The matrix form (already there: the model was built in it)."""
        return self._compiled

    def solve(
        self, time_limit: float | None = 180.0, mip_gap: float = 0.01
    ) -> Solution:
        """Solve with HiGHS and return a :class:`Solution`: the column
        vector ``x`` and the objective evaluated from it.

        Parameters
        ----------
        time_limit:
            Wall-clock cut-off in seconds.  Defaults to 180 s, the paper's
            three-minute bound on CPLEX solving time (Section 4.8).
        mip_gap:
            Relative MIP gap at which to stop; the paper configured CPLEX
            to stop within 1% of optimal (Section 6.6).
        """
        from . import scipy_backend  # imports this module

        start = time.perf_counter()
        solution = scipy_backend.solve(self._compiled, time_limit, mip_gap)
        solution.solve_seconds = time.perf_counter() - start
        if solution.status.has_solution:
            solution.objective = self._compiled.solution_objective(solution.x)
        return solution

    def stats(self) -> dict[str, int]:
        """Model size summary (variables, integers, constraints,
        nonzeros), as the Fig. 16 solving-time bench reports it."""
        return dict(self._stats)


__all__ = [
    "MatrixModel",
    "Solution",
    "SolveStatus",
    "CompiledModel",
    "SolverError",
]
