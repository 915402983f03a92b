"""Durable trace logs: the append-only writer and the run tracer.

Three pieces, layered:

- :class:`TraceWriter` / :class:`TraceCollector` — sinks.  The writer
  appends one sorted-keys JSON line per record to a file and flushes
  each one (a crash loses at most the line being written — the property
  crash-resume depends on); the collector keeps records in memory for
  tests and for verify-mode replay.
- :class:`RunTracer` — the subscription adapter the runtime seams call.
  It owns the run id and the monotonic sequence counter, stamps every
  record, and (optionally) mirrors span timings into a
  :class:`~repro.obs.registry.MetricsRegistry` so one instrumentation
  point feeds both the durable log and the live telemetry snapshot.
- :func:`read_trace` — parse + validate a log back into records.

The tracer is locked: a run emits from one thread while the registry
it mirrors into may be polled from another.  Record *order* is
nevertheless deterministic because each run's records are emitted by
exactly one thread (the thread that called ``Orchestrator.deploy`` for
``deploy``, the lockstep scheduler loop for ``fleet``).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from .records import (
    LifecycleV1,
    RunEndV1,
    RunStartV1,
    SpanV1,
    SubstrateEventV1,
    TraceHelloV1,
    TraceRecordV1,
    run_id_for,
)


class TraceError(ValueError):
    """A trace log that violates the format's invariants."""


class TraceWriter:
    """Append-only JSON-lines sink over a file.

    Accepts a path (opened for append, closed by :meth:`close` or the
    context manager) or an open text handle (left open — the caller owns
    it).  Appends are locked and flushed record-by-record.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        self._lock = threading.Lock()
        self.count = 0
        if isinstance(target, (str, Path)):
            self._handle = open(target, "a", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def append(self, record: TraceRecordV1) -> None:
        line = record.encode()
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.count += 1

    def close(self) -> None:
        with self._lock:
            if self._owns_handle and not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceCollector:
    """In-memory sink with the same ``append`` contract as the writer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: list[TraceRecordV1] = []

    @property
    def count(self) -> int:
        with self._lock:
            return len(self.records)

    def append(self, record: TraceRecordV1) -> None:
        with self._lock:
            self.records.append(record)


class RunTracer:
    """The runtime's subscription point: stamps and emits trace records.

    One tracer serves one run.  :meth:`begin` derives the run id from
    the scenario (content-addressed — identical configurations trace
    under identical ids) and writes the ``trace_hello`` + ``run_start``
    preamble; the seam methods then narrate the run.  ``sinks`` may be
    any mix of writers and collectors; ``registry`` (optional) receives
    every span's duration as a latency sample under the span's name.
    """

    def __init__(self, *sinks, registry=None) -> None:
        if not sinks:
            raise ValueError("a tracer needs at least one sink")
        self._lock = threading.Lock()
        self._sinks = sinks
        self._seq = 0
        self.registry = registry
        self.run_id = ""

    # -- preamble ----------------------------------------------------------

    def begin(self, run_kind: str, scenario: dict, *, version: str = "") -> str:
        """Open the log: ``trace_hello`` then ``run_start``.

        Returns the derived run id.  Must be called exactly once, before
        any other record.
        """
        if self.run_id:
            raise TraceError("begin() called twice on one tracer")
        self.run_id = run_id_for(scenario)
        start_hour = float(scenario.get("start_hour", 0.0))
        self._emit("trace_hello", TraceHelloV1(version=version), start_hour)
        self._emit(
            "run_start", RunStartV1(run_kind=run_kind, scenario=scenario),
            start_hour,
        )
        return self.run_id

    # -- seam methods ------------------------------------------------------

    def lifecycle(
        self,
        tenant: str,
        phase: str,
        *,
        hour: float,
        session_id: int = 0,
        detail: str = "",
        cost: float = 0.0,
        replans: int = 0,
        completion_hours: float = 0.0,
        backend: str = "",
    ) -> None:
        self._emit(
            "lifecycle",
            LifecycleV1(
                tenant=tenant,
                phase=phase,
                session_id=session_id,
                detail=detail,
                cost=cost,
                replans=replans,
                completion_hours=completion_hours,
                backend=backend,
            ),
            hour,
        )

    def deploy_event(self, event) -> None:
        """Log a :class:`~repro.api.schemas.DeployEventV1` — the record
        kind follows the event's own tag (``interval`` or ``replan``)."""
        self._emit(event.event, event, event.start_hour)

    def substrate_event(self, event) -> None:
        """Log a fleet :class:`~repro.fleet.events.SubstrateEvent`."""
        self._emit("substrate_event", SubstrateEventV1.from_event(event),
                   event.hour)

    def record_span(self, name: str, seconds: float, *, hour: float = 0.0) -> None:
        """One ``span`` record, mirrored into the registry's series."""
        self._emit("span", SpanV1(name=name, seconds=seconds), hour)
        if self.registry is not None:
            self.registry.series(name).record(seconds)

    @contextmanager
    def span(self, name: str, *, hour: float = 0.0) -> Iterator[None]:
        """Time a block: one ``span`` record, mirrored to the registry."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_span(name, time.perf_counter() - start, hour=hour)

    def end(self, summary: dict, *, hour: float) -> None:
        self._emit("run_end", RunEndV1(summary=summary), hour)

    # -- plumbing ----------------------------------------------------------

    def _emit(self, kind: str, payload, hour: float) -> None:
        if not self.run_id:
            raise TraceError(f"{kind!r} record before begin()")
        with self._lock:
            record = TraceRecordV1(
                run_id=self.run_id,
                seq=self._seq,
                hour=hour,
                kind=kind,
                payload=payload.to_dict(),
            )
            self._seq += 1
            for sink in self._sinks:
                sink.append(record)


def read_trace(source: str | Path) -> list[TraceRecordV1]:
    """Parse and validate a trace log.

    Enforces the log invariants — non-empty, ``trace_hello`` first, one
    run id throughout, gapless 0-based sequence numbers — and raises
    :class:`TraceError` on violation.  A log without a ``run_end`` is
    *valid*: that is exactly what a crashed run leaves behind, and what
    resume mode consumes.
    """
    path = Path(source)
    records: list[TraceRecordV1] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TraceRecordV1.decode(line))
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise TraceError(f"{path}: empty trace log")
    if records[0].kind != "trace_hello":
        raise TraceError(
            f"{path}: first record must be trace_hello, "
            f"got {records[0].kind!r}"
        )
    run_ids = {record.run_id for record in records}
    if len(run_ids) > 1:
        raise TraceError(f"{path}: multiple run ids in one log: "
                         f"{sorted(run_ids)}")
    for position, record in enumerate(records):
        if record.seq != position:
            raise TraceError(
                f"{path}: sequence gap at position {position} "
                f"(record says seq={record.seq})"
            )
    return records


__all__ = [
    "RunTracer",
    "TraceCollector",
    "TraceError",
    "TraceWriter",
    "read_trace",
]
