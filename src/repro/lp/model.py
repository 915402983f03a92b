"""LP/MILP model containers, the matrix form, and solution objects.

A :class:`Model` owns variables and constraints — the modelling
front-end — lowers semi-continuous variables to binary indicators, and
compiles to a :class:`CompiledModel`: dense bound/cost vectors and a CSR
constraint matrix, the one form every backend, the differ and the
incremental solver read and write.  A :class:`MatrixModel` is a model
that was *built* in that form (the planner's builder fills the arrays
directly and never touches the expression graph).  Both solve through
scipy/HiGHS (:mod:`repro.lp.scipy_backend`), the substrate standing in
for CPLEX in the paper (Section 4.8).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .expr import Constraint, LinExpr, Number, Sense, Variable, VarType, lin_sum


class ObjectiveSense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


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
    """Result of a solve: status, objective value and variable assignment."""

    status: SolveStatus
    objective: float = math.nan
    #: Per-:class:`Variable` assignment; filled by :meth:`Model.solve`
    #: only (a :class:`MatrixModel` has no variable objects).
    values: dict[Variable, float] = field(default_factory=dict)
    #: One value per compiled column, lowering columns included.
    x: np.ndarray | None = None
    solve_seconds: float = 0.0
    backend: str = ""
    message: str = ""
    #: Branch & bound nodes HiGHS explored: 0 for a pure LP, and for a
    #: MILP whose root relaxation was integral (no branch & bound ran).
    mip_node_count: int = 0

    def __getitem__(self, var: Variable) -> float:
        return self.values[var]

    def value(self, item: Union[Variable, LinExpr, Number]) -> float:
        """Evaluate a variable or expression under this solution."""
        if isinstance(item, Variable):
            return self.values[item]
        if isinstance(item, LinExpr):
            return item.evaluate(self.values)
        return float(item)

    def __bool__(self) -> bool:
        return self.status.has_solution


@dataclass
class CompiledModel:
    """Matrix form of a model after lowering, consumed by backends.

    All constraints are expressed as ``row_lb <= A x <= row_ub`` with
    ``A`` in CSR form (``indptr``/``indices``/``data``; column indices
    ascending within a row, exact-zero coefficients dropped).  The
    objective is always a minimization of ``objective @ x`` (maximization
    is negated during compilation).  Backends treat every array as
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
    #: Column identity: the originating variable's name (``None`` for a
    #: lowering binary).
    col_names: tuple[str | None, ...]
    negated: bool

    @property
    def num_rows(self) -> int:
        return len(self.row_lb)

    def solution_objective(self, x: np.ndarray) -> float:
        """The model's own objective (sense restored) at ``x``."""
        minimized = float(self.objective @ x) + self.objective_offset
        return -minimized if self.negated else minimized


class Model:
    """A mixed-integer linear program under construction.

    Example
    -------
    >>> m = Model("toy")
    >>> x = m.add_var("x", ub=4)
    >>> y = m.add_var("y", ub=4)
    >>> m.add_constr(x + 2 * y <= 6, "cap")
    >>> m.maximize(3 * x + 2 * y)
    >>> sol = m.solve()
    >>> round(sol.objective, 6)
    14.0
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._sense = ObjectiveSense.MINIMIZE
        self._names: set[str] = set()
        #: Compiled matrix form, kept until the model is mutated so that
        #: solving a model already compiled (tests compare the matrix
        #: before they solve) skips the lowering pass.  The incremental
        #: solver never sees a ``Model``: it diffs the builder's
        #: ``MatrixModel`` arrays.
        self._compiled: CompiledModel | None = None
        #: Variable bounds/types at compile time, used to detect in-place
        #: mutation (``var.ub = ...``) that bypasses the hooks above.
        self._compiled_bounds: list[tuple] | None = None

    # -- construction -----------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
        sc_lb: float = 0.0,
    ) -> Variable:
        """Create and register a decision variable."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r} in model {self.name!r}")
        self._names.add(name)
        var = Variable(name, len(self.variables), lb=lb, ub=ub, vtype=vtype, sc_lb=sc_lb)
        self.variables.append(var)
        self._compiled = None
        return var

    def add_vars(
        self,
        prefix: str,
        count: int,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> list[Variable]:
        """Create ``count`` variables named ``prefix[0] .. prefix[count-1]``."""
        return [
            self.add_var(f"{prefix}[{i}]", lb=lb, ub=ub, vtype=vtype)
            for i in range(count)
        ]

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (did the comparison produce a bool?)"
            )
        for var in constraint.expr.terms:
            if not (0 <= var.index < len(self.variables)) or self.variables[var.index] is not var:
                raise ValueError(
                    f"constraint {name or constraint!r} references variable "
                    f"{var.name!r} from a different model"
                )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        self._compiled = None
        return constraint

    def minimize(self, expr: Union[LinExpr, Variable, Number]) -> None:
        self._objective = LinExpr.from_value(expr)
        self._sense = ObjectiveSense.MINIMIZE
        self._compiled = None

    def maximize(self, expr: Union[LinExpr, Variable, Number]) -> None:
        self._objective = LinExpr.from_value(expr)
        self._sense = ObjectiveSense.MAXIMIZE
        self._compiled = None

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def sense(self) -> ObjectiveSense:
        return self._sense

    @property
    def num_integers(self) -> int:
        return sum(
            1
            for v in self.variables
            if v.vtype in (VarType.INTEGER, VarType.BINARY, VarType.SEMI_CONTINUOUS)
        )

    # -- compilation ------------------------------------------------------

    def compile(self) -> CompiledModel:
        """Lower the model to matrix form.

        Semi-continuous variables ``x in {0} ∪ [L, U]`` are lowered with an
        auxiliary binary ``z``: ``x <= U z`` and ``x >= L z``.

        The result is cached until the model is mutated (new variable or
        constraint, objective change); backends treat it as read-only.
        Variables mutated *in place* (``var.ub = ...``) bypass the
        explicit invalidation hooks, so the cache is revalidated against
        the live variable bounds on every call — a stale compiled matrix
        here would silently solve under the wrong bounds.
        """
        if self._compiled is not None:
            if self._compiled_bounds == self._bounds_signature():
                return self._compiled
            self._compiled = None
        col_names: list[str | None] = [v.name for v in self.variables]
        var_lb = [v.lb for v in self.variables]
        var_ub = [v.ub for v in self.variables]
        integrality = [
            v.vtype in (VarType.INTEGER, VarType.BINARY) for v in self.variables
        ]

        indptr: list[int] = [0]
        indices: list[int] = []
        data: list[float] = []
        row_lb: list[float] = []
        row_ub: list[float] = []

        def add_row(coefs: dict[int, float], lo: float, hi: float) -> None:
            for col in sorted(coefs):
                indices.append(col)
                data.append(coefs[col])
            indptr.append(len(indices))
            row_lb.append(lo)
            row_ub.append(hi)

        # Lower semi-continuous variables first so their indicator columns
        # exist before constraint rows are emitted.
        for var in self.variables:
            if var.vtype is not VarType.SEMI_CONTINUOUS:
                continue
            z_index = len(col_names)
            col_names.append(None)
            var_lb.append(0.0)
            var_ub.append(1.0)
            integrality.append(True)
            # x - U z <= 0
            add_row({var.index: 1.0, z_index: -var.ub}, -math.inf, 0.0)
            # x - L z >= 0
            add_row({var.index: 1.0, z_index: -var.sc_lb}, 0.0, math.inf)
            # The continuous column itself relaxes to [0, ub].
            var_lb[var.index] = 0.0

        for constraint in self.constraints:
            coefs = {
                var.index: coef
                for var, coef in constraint.expr.terms.items()
                if coef != 0.0
            }
            bound = -constraint.expr.constant
            if constraint.sense is Sense.LE:
                add_row(coefs, -math.inf, bound)
            elif constraint.sense is Sense.GE:
                add_row(coefs, bound, math.inf)
            else:
                add_row(coefs, bound, bound)

        negated = self._sense is ObjectiveSense.MAXIMIZE
        sign = -1.0 if negated else 1.0
        objective = np.zeros(len(col_names))
        for var, coef in self._objective.terms.items():
            objective[var.index] = sign * coef
        self._compiled = CompiledModel(
            num_vars=len(col_names),
            objective=objective,
            objective_offset=sign * self._objective.constant,
            indptr=np.asarray(indptr, dtype=np.int32),
            indices=np.asarray(indices, dtype=np.int32),
            data=np.asarray(data, dtype=float),
            row_lb=np.asarray(row_lb, dtype=float),
            row_ub=np.asarray(row_ub, dtype=float),
            var_lb=np.asarray(var_lb, dtype=float),
            var_ub=np.asarray(var_ub, dtype=float),
            integrality=np.asarray(integrality, dtype=bool),
            col_names=tuple(col_names),
            negated=negated,
        )
        self._compiled_bounds = self._bounds_signature()
        return self._compiled

    def _bounds_signature(self) -> list[tuple]:
        """Variable data the compiled matrix bakes in (bounds, types)."""
        return [(v.lb, v.ub, v.vtype, v.sc_lb) for v in self.variables]

    # -- solving ----------------------------------------------------------

    def solve(
        self, time_limit: float | None = 180.0, mip_gap: float = 0.01
    ) -> Solution:
        """Solve the model with HiGHS and return a :class:`Solution`.

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

        compiled = self.compile()
        start = time.perf_counter()
        solution = scipy_backend.solve(compiled, time_limit, mip_gap)
        solution.solve_seconds = time.perf_counter() - start
        if solution.status.has_solution:
            solution.values = {
                var: float(solution.x[var.index]) for var in self.variables
            }
            solution.objective = self._objective.evaluate(solution.values)
        return solution

    def check_feasible(self, values: Mapping[Variable, float], tol: float = 1e-5) -> list[Constraint]:
        """Return the constraints violated by ``values`` (bounds included).

        Used by tests and by the planner's self-check: a returned plan must
        satisfy every constraint of the model that produced it.
        """
        violated = []
        for constraint in self.constraints:
            if not constraint.satisfied_by(values, tol):
                violated.append(constraint)
        for var in self.variables:
            x = values[var]
            if x < var.lb - tol or x > var.ub + tol:
                violated.append(Constraint(LinExpr({var: 1.0}), Sense.GE, f"bounds({var.name})"))
            elif var.vtype in (VarType.INTEGER, VarType.BINARY) and abs(x - round(x)) > tol:
                violated.append(
                    Constraint(LinExpr({var: 1.0}), Sense.EQ, f"integrality({var.name})")
                )
            elif var.vtype is VarType.SEMI_CONTINUOUS and x > tol and x < var.sc_lb - tol:
                violated.append(
                    Constraint(LinExpr({var: 1.0}), Sense.GE, f"semicontinuous({var.name})")
                )
        return violated

    def stats(self) -> dict[str, int]:
        """Model size summary (used by the Fig. 16 solving-time bench)."""
        return {
            "variables": len(self.variables),
            "integers": self.num_integers,
            "constraints": len(self.constraints),
            "nonzeros": sum(len(c.expr.terms) for c in self.constraints),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Model({self.name!r}, vars={s['variables']}, "
            f"ints={s['integers']}, constrs={s['constraints']})"
        )


class MatrixModel:
    """A model built directly in matrix form — no expression graph.

    What :func:`repro.core.model_builder.build_model` hands out: the
    :class:`CompiledModel` it filled plus the row names.  Offers the part
    of :class:`Model`'s interface a finished model needs (``compile``,
    ``solve``, ``stats``); the ``.lp``/``.mps`` writers read its arrays.
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
        """Solve with HiGHS; see :meth:`Model.solve` for the parameters.

        The solution carries the column vector ``x`` (no per-variable
        ``values``) and the objective evaluated from it.
        """
        from . import scipy_backend  # imports this module

        start = time.perf_counter()
        solution = scipy_backend.solve(self._compiled, time_limit, mip_gap)
        solution.solve_seconds = time.perf_counter() - start
        if solution.status.has_solution:
            solution.objective = self._compiled.solution_objective(solution.x)
        return solution

    def stats(self) -> dict[str, int]:
        """Model size summary, same keys as :meth:`Model.stats`."""
        return dict(self._stats)


__all__ = [
    "Model",
    "MatrixModel",
    "Solution",
    "SolveStatus",
    "ObjectiveSense",
    "CompiledModel",
    "SolverError",
    "lin_sum",
]
