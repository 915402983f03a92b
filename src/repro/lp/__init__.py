"""LP/MILP modeling and solving substrate.

The paper models MapReduce deployments as a dynamic linear program and
solves it with CPLEX (Sections 4 and 4.8).  This package provides the
equivalent substrate built from scratch:

- :class:`Variable`, :class:`LinExpr`, :class:`Constraint` — the algebra.
- :class:`Model` — the modelling front-end the tests write models in:
  container, semi-continuous lowering, ``compile()`` to the matrix form,
  ``solve()``.
- :class:`~repro.lp.model.CompiledModel` — the one matrix form: dense
  cost/bound vectors and a CSR constraint matrix.  :class:`MatrixModel`
  is a model built in it directly — the planner's hot path
  (:mod:`repro.core.model_builder`) never builds an expression.
- :mod:`~repro.lp.incremental` — vectorized ``diff_compiled`` between
  two matrices of one structure, and the ``CompiledDelta`` that patches
  a retained one in place.
- :mod:`~repro.lp.scipy_backend` — HiGHS, the solver, through the one
  native binding scipy vendors: ``solve`` (cold branch & bound) and
  ``HotLP`` (persistent LP for warm re-plans), both loaded from
  ``CompiledModel`` arrays.
- :mod:`~repro.lp.writers` — ``.lp``/``.mps`` export of a
  :class:`MatrixModel`, straight from its arrays.

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
    MatrixModel,
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
    "MatrixModel",
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
