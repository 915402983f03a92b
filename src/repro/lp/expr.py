"""Linear expressions, variables, and constraints.

This module implements the algebraic layer of the LP/MILP substrate: the
paper's planner (Section 4) generates a dynamic linear program whose
variables, linear expressions and constraints are represented by the classes
here.  The design mirrors mainstream modeling layers (PuLP, gurobipy): you
combine :class:`Variable` objects with ``+``, ``-``, ``*`` into
:class:`LinExpr`, and comparison operators (``<=``, ``>=``, ``==``) produce
:class:`Constraint` objects that can be added to a :class:`repro.lp.Model`.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Mapping, Union

Number = Union[int, float]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"
    #: Either exactly 0 or within ``[sc_lb, ub]`` (paper Section 4.3 uses a
    #: semi-continuous variable for the map/reduce phase barrier).  Lowered
    #: to a binary indicator during model compilation.
    SEMI_CONTINUOUS = "semi-continuous"


class Sense(enum.Enum):
    """Direction of a constraint relation."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Variable:
    """A decision variable.

    Variables are created through :meth:`repro.lp.Model.add_var`, which
    assigns the ``index`` used to address the variable in solver matrices.

    Parameters
    ----------
    name:
        Human-readable identifier (used in solution dumps and errors).
    index:
        Column index in the owning model, assigned by the model.
    lb, ub:
        Lower/upper bounds.  ``ub`` may be ``math.inf``.
    vtype:
        Variable domain; see :class:`VarType`.
    sc_lb:
        For semi-continuous variables only: the lowest non-zero value the
        variable may take.
    """

    __slots__ = ("name", "index", "lb", "ub", "vtype", "sc_lb")

    def __init__(
        self,
        name: str,
        index: int,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
        sc_lb: float = 0.0,
    ) -> None:
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        if vtype is VarType.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if vtype is VarType.SEMI_CONTINUOUS:
            if not math.isfinite(ub):
                raise ValueError(
                    f"semi-continuous variable {name!r} needs a finite upper bound"
                )
            if sc_lb < 0:
                raise ValueError(f"semi-continuous lb must be >= 0, got {sc_lb}")
        self.name = name
        self.index = index
        self.lb = float(lb)
        self.ub = float(ub)
        self.vtype = vtype
        self.sc_lb = float(sc_lb)

    # -- algebra ----------------------------------------------------------

    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0})

    def __add__(self, other: Union["Variable", "LinExpr", Number]) -> "LinExpr":
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: Union["Variable", "LinExpr", Number]) -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: Union["Variable", "LinExpr", Number]) -> "LinExpr":
        return (-self._as_expr()) + other

    def __mul__(self, coef: Number) -> "LinExpr":
        return self._as_expr() * coef

    __rmul__ = __mul__

    def __truediv__(self, denom: Number) -> "LinExpr":
        return self._as_expr() / denom

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    def __le__(self, other: Union["Variable", "LinExpr", Number]) -> "Constraint":
        return self._as_expr() <= other

    def __ge__(self, other: Union["Variable", "LinExpr", Number]) -> "Constraint":
        return self._as_expr() >= other

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented

    #: Identity hash, taken at C level: variables key every term dict, so
    #: a Python-level ``__hash__`` is millions of calls per model build.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """An affine expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Mapping[Variable, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self.terms: dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    @classmethod
    def from_value(cls, value: Union["LinExpr", Variable, Number]) -> "LinExpr":
        """Coerce a variable or number into a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value.copy()
        if isinstance(value, Variable):
            return value._as_expr()
        if isinstance(value, (int, float)):
            return cls(constant=float(value))
        raise TypeError(f"cannot build LinExpr from {type(value).__name__}")

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    # -- algebra ----------------------------------------------------------

    def _iadd(self, other: Union["LinExpr", Variable, Number], sign: float) -> "LinExpr":
        result = self.copy()
        _accumulate(result, other, sign)
        return result

    def __add__(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        return self._iadd(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        return self._iadd(other, -1.0)

    def __rsub__(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        return (-self) + other

    def __mul__(self, coef: Number) -> "LinExpr":
        if not isinstance(coef, (int, float)):
            raise TypeError("LinExpr supports multiplication by scalars only")
        return LinExpr(
            {var: c * coef for var, c in self.terms.items()},
            self.constant * coef,
        )

    __rmul__ = __mul__

    def __truediv__(self, denom: Number) -> "LinExpr":
        if denom == 0:
            raise ZeroDivisionError("division of LinExpr by zero")
        return self * (1.0 / denom)

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- relations --------------------------------------------------------

    def __le__(self, other: Union["LinExpr", Variable, Number]) -> "Constraint":
        return Constraint(self - other, Sense.LE)

    def __ge__(self, other: Union["LinExpr", Variable, Number]) -> "Constraint":
        return Constraint(self - other, Sense.GE)

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (LinExpr, Variable, int, float)):
            return Constraint(self - other, Sense.EQ)
        return NotImplemented

    __hash__ = object.__hash__

    # -- inspection --------------------------------------------------------

    def variables(self) -> list[Variable]:
        """Variables with a non-zero coefficient, in insertion order."""
        return [v for v, c in self.terms.items() if c != 0.0]

    def coefficient(self, var: Variable) -> float:
        return self.terms.get(var, 0.0)

    def evaluate(self, values: Mapping[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        return self.constant + sum(
            coef * values[var] for var, coef in self.terms.items() if coef != 0.0
        )

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


def _accumulate(total: LinExpr, item: Union[LinExpr, Variable, Number], sign: float) -> None:
    """``total += sign * item`` in place, allocating nothing for ``item``."""
    terms = total.terms
    if isinstance(item, Variable):
        terms[item] = terms.get(item, 0.0) + sign
    elif isinstance(item, LinExpr):
        for var, coef in item.terms.items():
            terms[var] = terms.get(var, 0.0) + sign * coef
        total.constant += sign * item.constant
    elif isinstance(item, (int, float)):
        total.constant += sign * item
    else:
        raise TypeError(f"cannot build LinExpr from {type(item).__name__}")


def lin_sum(items: Iterable[Union[LinExpr, Variable, Number]]) -> LinExpr:
    """Sum an iterable of expressions/variables/numbers into one LinExpr.

    Unlike repeated ``+`` (which copies at every step), this accumulates in
    place and is linear in the total number of terms — the model builder
    sums thousands of terms when generating time-expanded constraints.
    """
    total = LinExpr()
    for item in items:
        _accumulate(total, item, 1.0)
    return total


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0``.

    Comparison operators on expressions move everything to the left-hand
    side, so the stored form always compares against zero; ``rhs`` exposes
    the conventional right-hand side (the negated constant).
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: Sense, name: str = "") -> None:
        self.expr = expr
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        return -self.expr.constant

    def satisfied_by(self, values: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        """Check the constraint under an assignment, within ``tol``.

        ``tol`` is relative to the row's infinity norm: the residual is
        compared against ``tol * max(1, |constant|, max|coef|)``, the
        standard scaled feasibility check.  Solver round-off scales with
        the row's coefficients — a row like ``x - 850*n <= 0`` solved
        through presolve and a MIP gap can carry an absolute residual
        orders of magnitude above an unscaled ``tol`` while still being
        feasible for every practical purpose.
        """
        lhs = self.expr.evaluate(values)
        scale = max(
            1.0,
            abs(self.expr.constant),
            *(
                abs(coef)
                for coef in self.expr.terms.values()
                if coef != 0.0
            ),
        )
        allowed = tol * scale
        if self.sense is Sense.LE:
            return lhs <= allowed
        if self.sense is Sense.GE:
            return lhs >= -allowed
        return abs(lhs) <= allowed

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} 0{label})"
