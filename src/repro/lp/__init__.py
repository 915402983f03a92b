"""LP/MILP solving substrate.

The paper models MapReduce deployments as a dynamic linear program and
solves it with CPLEX (Sections 4 and 4.8).  This package provides the
equivalent substrate built from scratch:

- :class:`~repro.lp.model.CompiledModel` — the one matrix form: dense
  cost/bound vectors and a CSR constraint matrix.  :class:`MatrixModel`
  is a model built in it, with row names and a size summary; the
  planner's builder (:mod:`repro.core.model_builder`) fills its arrays
  directly.
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

    from repro.cloud import public_cloud
    from repro.core import (Goal, NetworkConditions, PlannerJob,
                            PlanningProblem, build_model)

    problem = PlanningProblem(job=PlannerJob(name="job", input_gb=8.0),
                              services=public_cloud(),
                              network=NetworkConditions.from_mbit_s(16.0),
                              goal=Goal.min_cost(deadline_hours=3.0))
    model = build_model(problem).model   # a MatrixModel
    solution = model.solve()             # solution.x: one value per column
"""

from .model import MatrixModel, Solution, SolveStatus, SolverError
from .writers import save, write_lp, write_mps

__all__ = [
    "MatrixModel",
    "Solution",
    "SolveStatus",
    "SolverError",
    "save",
    "write_lp",
    "write_mps",
]
