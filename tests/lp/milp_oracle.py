"""The tests' reference solve: a ``CompiledModel`` handed to
``scipy.optimize.milp``.

That is scipy's own HiGHS entry point, not the repo's binding, so
agreeing with it checks ``repro.lp.scipy_backend``'s wrapper: how it
loads the arrays, maps statuses and certifies a root relaxation.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.lp import Solution, SolveStatus

#: ``milp``'s status codes: 0 optimal, 2 infeasible, 3 unbounded; 1 (a
#: limit) and 4 (anything else) are errors here.
_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def solve(compiled):
    """``compiled`` solved to a zero gap: the status, one value per
    compiled column (integer columns rounded) and the model's objective."""
    matrix = csr_matrix(
        (compiled.data, compiled.indices, compiled.indptr),
        shape=(compiled.num_rows, compiled.num_vars),
    )
    result = milp(
        compiled.objective,
        constraints=[LinearConstraint(matrix, compiled.row_lb, compiled.row_ub)]
        if compiled.num_rows else None,
        bounds=Bounds(compiled.var_lb, compiled.var_ub),
        integrality=compiled.integrality.astype(int),
        options={"mip_rel_gap": 0.0},
    )
    solution = Solution(
        status=_STATUS.get(result.status, SolveStatus.ERROR),
        backend="scipy-milp",
        message=result.message,
    )
    if solution.status.has_solution:
        solution.x = np.where(compiled.integrality, np.rint(result.x), result.x)
        solution.objective = compiled.solution_objective(solution.x)
    return solution
