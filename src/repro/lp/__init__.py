"""LP/MILP modeling and solving substrate.

The paper models MapReduce deployments as a dynamic linear program and
solves it with CPLEX (Sections 4 and 4.8).  This package provides the
equivalent substrate built from scratch:

- :class:`Variable`, :class:`LinExpr`, :class:`Constraint` — the algebra.
- :class:`Model` — container, semi-continuous lowering, ``solve()``.
- :mod:`~repro.lp.scipy_backend` — HiGHS, the solver: ``solve`` (cold
  branch & bound) and ``HotLP`` (persistent LP for warm re-plans).
- :mod:`~repro.lp.simplex_backend` — a pure-Python two-phase simplex with
  branch & bound, kept as the reference oracle the tests cross-check
  HiGHS against; ``Model.solve`` never calls it.

Quick example::

    from repro.lp import Model

    m = Model()
    x = m.add_var("x", ub=10)
    y = m.add_var("y", ub=10)
    m.add_constr(x + y <= 12)
    m.maximize(2 * x + 3 * y)
    solution = m.solve()
"""

from .expr import Constraint, LinExpr, Sense, Variable, VarType, lin_sum
from .model import (
    Model,
    ObjectiveSense,
    Solution,
    SolveStatus,
    SolverError,
)
from .writers import save, write_lp, write_mps

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "ObjectiveSense",
    "Sense",
    "Solution",
    "SolveStatus",
    "SolverError",
    "Variable",
    "VarType",
    "lin_sum",
    "save",
    "write_lp",
    "write_mps",
]
