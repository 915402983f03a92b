"""``scipy_backend`` loads the HiGHS binding by its file, without running
``scipy.optimize``'s ``__init__``.

Each test runs in a fresh interpreter: ``sys.modules`` in this one
already holds whatever other tests imported (the ``milp`` oracle imports
``scipy.optimize``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: A small MILP whose relaxation is fractional, so the cold solve runs
#: branch & bound and not only the LP.
KNAPSACK = """
from arrays import INF, matrix_model
from repro.lp import SolveStatus
from repro.lp import scipy_backend

def knapsack():
    rows = [([2.0, 3, 1], -INF, 7.5), ([1, 1, 0], 1.0, INF)]
    return matrix_model([3.0, 4.0, 1.5], rows, ub=3.0, integer=True,
                        maximize=True).compile()
"""

#: Both orders end here: one MILP optimal through the repo's binding and
#: through ``scipy.optimize.milp`` (the tests' oracle), and every holder
#: of ``_core`` holding one module object.
BOTH_SOLVE = """
import milp_oracle
import scipy.optimize._highspy._core as imported
import scipy.optimize._highspy._highs_wrapper as wrapper

compiled = knapsack()
ours = scipy_backend.solve(compiled, 30.0, mip_gap=0.0)
theirs = milp_oracle.solve(compiled)
assert ours.status is theirs.status is SolveStatus.OPTIMAL
assert abs(ours.objective - theirs.objective) < 1e-9
core = sys.modules["scipy.optimize._highspy._core"]
assert scipy_backend._hs is core and imported is core and wrapper._h is core
print("ok", ours.objective)
"""


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_entry_points_and_solves_leave_scipy_optimize_unimported():
    out = run_fresh("import sys\n" + KNAPSACK + """
import repro, repro.api, repro.cli, repro.fleet, repro.obs.replay
from repro.lp.scipy_backend import HotLP

repro.cli.build_parser()
compiled = knapsack()
assert scipy_backend.solve(compiled, 30.0).status is SolveStatus.OPTIMAL
assert HotLP(compiled).run(30.0).status is SolveStatus.OPTIMAL
loaded = sorted(name for name in sys.modules if name.startswith("scipy.optimize"))
print(loaded)
assert "scipy.optimize" not in sys.modules, loaded
""")
    assert "'scipy.optimize._highspy._core'" in out


@pytest.mark.parametrize("first", ["repro", "scipy.optimize"])
def test_the_binding_and_scipy_optimize_share_one_module(first):
    imports = "import sys\n"
    if first == "scipy.optimize":
        imports += "import scipy.optimize\n"
    out = run_fresh(imports + KNAPSACK + BOTH_SOLVE)
    assert out.startswith("ok ")
