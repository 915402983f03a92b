"""Executor seam: picking a backend by name must hand back the real thing.

`FluidExecutor` is the `sim` backend itself; `make_executor("sim", ...)`
returns one, so the controller steps every backend through the same
`execute_interval` call.  Two things to pin:

1. **No seam** — `make_executor("sim", ...)` returns a `FluidExecutor`
   (that exact class, not a wrapper), and one interval stepped through
   it leaves the same state as one stepped through a directly built
   `FluidExecutor`.  A timing comparison of the two would measure one
   loop against itself.
2. **Pool throughput** — the process-pool backend actually executes a
   small wordcount (real map/reduce callables over real synthesized
   bytes); the bench reports its task throughput and checks the merged
   word counts account for every map task's output, so the "real work"
   backend is demonstrably doing real work.
"""

import time

from conftest import once, print_table

from repro.cloud import public_cloud
from repro.core import Goal, NetworkConditions, PlannerJob
from repro.core.conditions import ActualConditions
from repro.core.controller import JobController
from repro.core.executor import FluidExecutor
from repro.core.problem import SystemState
from repro.exec import make_executor

NET = NetworkConditions.from_mbit_s(16.0)


def _planned_run():
    """One solved plan's problem and its first interval."""
    controller = JobController(
        PlannerJob(name="seam", input_gb=16.0),
        public_cloud(),
        Goal.min_cost(deadline_hours=8.0),
        network=NET,
    )
    run = controller.start(ActualConditions.as_predicted())
    problem = controller._problem(run.state)
    interval = run.plans[0].interval_at(0.0)
    return problem, interval


def measure_seam():
    """The executor ``make_executor("sim", ...)`` builds, and the state one
    interval leaves behind through it and through a direct build."""
    problem, interval = _planned_run()
    seam = make_executor("sim", problem, ActualConditions.as_predicted())
    direct = FluidExecutor(problem, ActualConditions.as_predicted())
    stepped = []
    for executor in (seam, direct):
        state = SystemState.initial(problem.job)
        stepped.append((executor.execute_interval(interval, state), state))
    return type(seam), *stepped


def measure_pool_wordcount():
    """Small wordcount through the pool backend: throughput + totals."""
    controller = JobController(
        PlannerJob(name="wordcount", input_gb=8.0),
        public_cloud(),
        Goal.min_cost(deadline_hours=6.0),
        network=NET,
        backend="pool",
        backend_options={"task_gb": 0.5, "payload_bytes": 65536},
    )
    run = controller.start(ActualConditions.as_predicted())
    executor = run._executor
    assert executor.name == "pool"
    start = time.perf_counter()
    try:
        while run.step() is not None:
            pass
        elapsed = time.perf_counter() - start
        result = run.result()
        assert result.completed
        counts = executor.collected_counts()
        tasks = executor.tasks_run
        failed = executor.tasks_failed
    finally:
        run.close()
    return elapsed, tasks, failed, sum(counts.values()), len(counts)


def test_executor_overhead(benchmark):
    def experiment():
        return measure_seam(), measure_pool_wordcount()

    (seam_class, via_seam, direct), pool = once(benchmark, experiment)
    elapsed, tasks, failed, words, vocabulary = pool

    print_table(
        "Pool backend on an 8 GB wordcount",
        [
            ("tasks executed", tasks, f"{tasks / elapsed:8.1f} tasks/s"),
            ("tasks failed", failed, ""),
            ("words counted", words, f"{vocabulary} distinct"),
        ],
        headers=("metric", "value", "rate"),
    )

    # The seam adds nothing: the sim backend is FluidExecutor itself.
    assert seam_class is FluidExecutor, seam_class
    assert via_seam == direct
    # The pool really ran the job: every task ok, real words counted.
    assert failed == 0
    assert tasks >= 16  # 8 GB at 0.5 GB/task, plus reduces
    assert words > 0 and vocabulary > 1
