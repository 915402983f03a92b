"""Small LPs and MILPs written as the arrays the solver reads.

``matrix_model(objective, rows)`` is ``objective @ x`` minimized (or
maximized), subject to ``lo <= coefs @ x <= hi`` for every ``(coefs, lo,
hi)`` in ``rows`` (``coefs`` dense, one entry per column) and to the
column bounds: a :class:`repro.lp.MatrixModel`, which solves as the
planner's models do and which the writers print.
"""

import math

import numpy as np

from repro.lp import MatrixModel
from repro.lp.model import CompiledModel

INF = math.inf


def matrix_model(
    objective,
    rows=(),
    *,
    lb=0.0,
    ub=INF,
    integer=False,
    maximize=False,
    offset=0.0,
    names=None,
    row_names=None,
    name="m",
) -> MatrixModel:
    """``lb``, ``ub`` and ``integer`` are one value for every column or
    one per column; ``offset`` is the objective's constant."""
    n = len(objective)
    sign = -1.0 if maximize else 1.0
    indptr, indices, data = [0], [], []
    for coefs, _, _ in rows:
        assert len(coefs) == n
        for col, coef in enumerate(coefs):
            if coef != 0:
                indices.append(col)
                data.append(float(coef))
        indptr.append(len(indices))
    integrality = np.broadcast_to(np.asarray(integer, dtype=bool), (n,)).copy()
    compiled = CompiledModel(
        num_vars=n,
        objective=sign * np.asarray(objective, dtype=float),
        objective_offset=sign * offset,
        indptr=np.asarray(indptr, dtype=np.int32),
        indices=np.asarray(indices, dtype=np.int32),
        data=np.asarray(data, dtype=float),
        row_lb=np.asarray([lo for _, lo, _ in rows], dtype=float),
        row_ub=np.asarray([hi for _, _, hi in rows], dtype=float),
        var_lb=np.broadcast_to(np.asarray(lb, dtype=float), (n,)).copy(),
        var_ub=np.broadcast_to(np.asarray(ub, dtype=float), (n,)).copy(),
        integrality=integrality,
        col_names=tuple(names or (f"x{i}" for i in range(n))),
        negated=maximize,
    )
    stats = {
        "variables": n,
        "integers": int(integrality.sum()),
        "constraints": len(rows),
        "nonzeros": len(data),
    }
    row_names = tuple(row_names or (f"r{i}" for i in range(len(rows))))
    return MatrixModel(name, compiled, row_names, stats)
