"""The ``pool`` runner: local process-pool MapReduce execution.

Each interval's task batch runs on a
:class:`concurrent.futures.ProcessPoolExecutor`, one worker process per
"node".  Per-node timeouts are enforced on the result wait; a worker
death (the chaos SIGKILL, an OOM kill) breaks the pool — every task
still in flight is reported ``killed``, the pool is discarded and
lazily rebuilt, and the controller sees the loss as a service failure.
"""

from __future__ import annotations

import concurrent.futures as futures
from concurrent.futures.process import BrokenProcessPool

from .tasks import DEFAULT_TIMEOUT_S, TaskResult, TaskSpec, execute_task_wire
from .work import TaskRunner

#: Worker processes in the pool.
MAX_WORKERS = 2


class ProcessPoolRunner(TaskRunner):
    """Task batches on a lazily (re)built process pool."""

    def __init__(self) -> None:
        self._pool: futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(max_workers=MAX_WORKERS)
        return self._pool

    def run_batch(self, specs: list[TaskSpec]) -> list[TaskResult]:
        try:
            pool = self._ensure_pool()
            pending = [
                (spec, pool.submit(execute_task_wire, spec.to_dict()))
                for spec in specs
            ]
        except BrokenProcessPool as exc:
            self._discard_pool()
            return [self._killed(spec, exc) for spec in specs]
        results: list[TaskResult] = []
        broken: BrokenProcessPool | None = None
        for spec, future in pending:
            if broken is not None:
                future.cancel()
                results.append(self._killed(spec, broken))
                continue
            try:
                results.append(
                    TaskResult.from_dict(future.result(timeout=DEFAULT_TIMEOUT_S))
                )
            except futures.TimeoutError:
                future.cancel()
                results.append(TaskResult(
                    task_id=spec.task_id,
                    status="timeout",
                    error=f"exceeded per-node timeout of {DEFAULT_TIMEOUT_S:g}s",
                ))
            except BrokenProcessPool as exc:
                broken = exc
                results.append(self._killed(spec, exc))
            except Exception as exc:  # submit-side failure, not task error
                results.append(TaskResult(
                    task_id=spec.task_id,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                ))
        if broken is not None:
            self._discard_pool()
        return results

    @staticmethod
    def _killed(spec: TaskSpec, exc: BaseException) -> TaskResult:
        return TaskResult(
            task_id=spec.task_id,
            status="killed",
            error=f"worker pool broken: {type(exc).__name__}",
        )

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


__all__ = ["ProcessPoolRunner"]
