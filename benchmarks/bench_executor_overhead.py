"""Executor seam overhead: picking a backend by name must be nearly free.

`FluidExecutor` is the `sim` backend itself; `make_executor("sim", ...)`
returns one, so the controller steps every backend through the same
`execute_interval` call.  Two things to pin:

1. **Seam cost** — driving the simulator built by `make_executor` must
   stay within 2% of calling a directly constructed `FluidExecutor`,
   interval for interval.  Both loops run the same class, so this
   guards against the seam growing a wrapper back; the capacity hooks
   the real backends override sit on the per-interval hot path of both.
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

#: Interval executions per timing round — enough that the per-call seam
#: cost is measurable above timer noise.
STEPS = 2000
ROUNDS = 5


def _planned_run():
    """One solved plan + the interval/state pair the loops re-execute."""
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


def _time_direct(problem, interval):
    # Executors are built once per adopted plan, so construction is off
    # the hot path; what repeats every interval is the execute call.
    executor = FluidExecutor(problem, ActualConditions.as_predicted())
    start = time.perf_counter()
    for _ in range(STEPS):
        executor.execute_interval(interval, SystemState.initial(problem.job))
    return time.perf_counter() - start


def _time_seam(problem, interval):
    executor = make_executor("sim", problem, ActualConditions.as_predicted())
    start = time.perf_counter()
    for _ in range(STEPS):
        executor.execute_interval(interval, SystemState.initial(problem.job))
    return time.perf_counter() - start


def measure_seam():
    problem, interval = _planned_run()
    direct = []
    seam = []
    # Interleaved, best-of-N: one GC pause must not brand the seam slow.
    for _ in range(ROUNDS):
        direct.append(_time_direct(problem, interval))
        seam.append(_time_seam(problem, interval))
    return min(direct), min(seam)


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

    (direct_s, seam_s), pool = once(benchmark, experiment)
    overhead = seam_s / direct_s - 1.0
    elapsed, tasks, failed, words, vocabulary = pool

    print_table(
        f"Executor seam cost ({STEPS} intervals, best of {ROUNDS})",
        [
            ("FluidExecutor direct", f"{direct_s * 1e3:9.1f}ms", ""),
            ("sim via make_executor", f"{seam_s * 1e3:9.1f}ms",
             f"{100 * overhead:+6.2f}%"),
        ],
        headers=("path", "wall clock", "overhead"),
    )
    print_table(
        "Pool backend on an 8 GB wordcount",
        [
            ("tasks executed", tasks, f"{tasks / elapsed:8.1f} tasks/s"),
            ("tasks failed", failed, ""),
            ("words counted", words, f"{vocabulary} distinct"),
        ],
        headers=("metric", "value", "rate"),
    )

    # The seam's budget: building the backend by name costs < 2%.
    assert overhead < 0.02, (
        f"backend seam adds {100 * overhead:.2f}% per interval (>= 2%)"
    )
    # The pool really ran the job: every task ok, real words counted.
    assert failed == 0
    assert tasks >= 16  # 8 GB at 0.5 GB/task, plus reduces
    assert words > 0 and vocabulary > 1
