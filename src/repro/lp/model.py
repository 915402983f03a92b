"""LP/MILP model container and solution objects.

A :class:`Model` owns variables and constraints, lowers semi-continuous
variables to binary indicators, and solves through scipy/HiGHS
(:mod:`repro.lp.scipy_backend`).  This is the substrate standing in for
CPLEX in the paper (Section 4.8).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

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
    values: dict[Variable, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    backend: str = ""
    message: str = ""

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

    All constraints are expressed as ``row_lb <= A x <= row_ub`` where ``A``
    is a list of sparse rows ``{column: coef}``.  The objective is always a
    minimization of ``c x`` (maximization is negated during compilation).
    """

    num_vars: int
    objective: dict[int, float]
    objective_offset: float
    rows: list[dict[int, float]]
    row_lb: list[float]
    row_ub: list[float]
    var_lb: list[float]
    var_ub: list[float]
    integrality: list[bool]
    #: Map column -> originating Variable (lowering binaries have none).
    columns: list[Variable | None]
    negated: bool


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
        #: solving a model already compiled (the incremental solver diffs
        #: the matrix before it solves) skips the lowering pass.
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

    def add_constrs(self, constraints: Iterable[Constraint], prefix: str = "") -> None:
        for i, constraint in enumerate(constraints):
            self.add_constr(constraint, f"{prefix}[{i}]" if prefix else "")

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
        columns: list[Variable | None] = list(self.variables)
        var_lb = [v.lb for v in self.variables]
        var_ub = [v.ub for v in self.variables]
        integrality = [
            v.vtype in (VarType.INTEGER, VarType.BINARY) for v in self.variables
        ]

        rows: list[dict[int, float]] = []
        row_lb: list[float] = []
        row_ub: list[float] = []

        def add_row(coefs: dict[int, float], lo: float, hi: float) -> None:
            rows.append(coefs)
            row_lb.append(lo)
            row_ub.append(hi)

        # Lower semi-continuous variables first so their indicator columns
        # exist before constraint rows are emitted.
        for var in self.variables:
            if var.vtype is not VarType.SEMI_CONTINUOUS:
                continue
            z_index = len(columns)
            columns.append(None)
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
        objective = {
            var.index: sign * coef
            for var, coef in self._objective.terms.items()
            if coef != 0.0
        }
        self._compiled = CompiledModel(
            num_vars=len(columns),
            objective=objective,
            objective_offset=sign * self._objective.constant,
            rows=rows,
            row_lb=row_lb,
            row_ub=row_ub,
            var_lb=var_lb,
            var_ub=var_ub,
            integrality=integrality,
            columns=columns,
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
                var: solution.values.get(var, 0.0) for var in self.variables
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


__all__ = [
    "Model",
    "Solution",
    "SolveStatus",
    "ObjectiveSense",
    "CompiledModel",
    "SolverError",
    "lin_sum",
]
