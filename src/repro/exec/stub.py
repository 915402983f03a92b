"""The ``stub`` runner: the container contract, minus the container.

Each interval's task batch is shelled into a fresh subprocess running
:mod:`repro.exec.handler` — the batch JSON goes in on stdin, the result
JSON comes back on stdout, non-zero exit fails the whole batch.  That is
exactly the contract a real container image would speak; promoting this
backend to Docker/Kubernetes means swapping the command line for
``docker run`` (or a pod exec) and nothing else.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from .tasks import (
    DEFAULT_TIMEOUT_S,
    TaskResult,
    TaskSpec,
    decode_results,
    encode_batch,
)
from .work import TaskRunner

#: Extra wall-clock (seconds) allowed for interpreter startup + imports.
_STARTUP_SLACK_S = 15.0


def _handler_command() -> list[str]:
    """The "container entrypoint" — here, this interpreter + handler."""
    return [sys.executable, "-m", "repro.exec.handler"]


def _handler_env() -> dict[str, str]:
    """Subprocess env with ``repro`` importable from this checkout."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return env


class SubprocessRunner(TaskRunner):
    """One subprocess per batch, speaking the stdin/stdout JSON contract."""

    def run_batch(self, specs: list[TaskSpec]) -> list[TaskResult]:
        budget = len(specs) * DEFAULT_TIMEOUT_S + _STARTUP_SLACK_S
        try:
            proc = subprocess.run(
                _handler_command(),
                input=encode_batch(specs),
                capture_output=True,
                text=True,
                timeout=budget,
                env=_handler_env(),
            )
        except subprocess.TimeoutExpired:
            return [
                TaskResult(
                    task_id=spec.task_id,
                    status="timeout",
                    error=f"batch exceeded {budget:g}s",
                )
                for spec in specs
            ]
        if proc.returncode != 0:
            # The contract: non-zero exit (e.g. a SIGKILLed worker, exit
            # status -9) fails the entire batch.
            detail = (proc.stderr or "").strip().splitlines()
            reason = detail[-1] if detail else f"exit status {proc.returncode}"
            return [
                TaskResult(
                    task_id=spec.task_id, status="killed", error=reason
                )
                for spec in specs
            ]
        try:
            results = decode_results(proc.stdout)
        except (ValueError, KeyError) as exc:
            return [
                TaskResult(
                    task_id=spec.task_id,
                    status="error",
                    error=f"unparseable handler output: {exc}",
                )
                for spec in specs
            ]
        by_id = {result.task_id: result for result in results}
        return [
            by_id.get(
                spec.task_id,
                TaskResult(
                    task_id=spec.task_id,
                    status="error",
                    error="no result for task in handler output",
                ),
            )
            for spec in specs
        ]


__all__ = ["SubprocessRunner"]
