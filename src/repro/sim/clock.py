"""The simulation driver: virtual clock plus event dispatch loop.

All simulated components (network flows, MapReduce tasks, billing meters,
the job controller's monitoring ticks) schedule callbacks on one shared
:class:`Simulation` instance.  Time is in **seconds**.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the
    past), which would silently corrupt causality if allowed."""


class Simulation:
    """Discrete-event simulation with a monotonically advancing clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self.events_dispatched = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self._queue.push(self._now + delay, callback, args, priority)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next event.  Returns ``False`` when queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now - 1e-9:
            raise SimulationError("event queue returned an event from the past")
        self._now = max(self._now, event.time)
        self.events_dispatched += 1
        event.callback(*event.args)
        return True

    def run(self, until: float = math.inf, max_events: int = 10_000_000) -> float:
        """Run until the queue empties or the clock passes ``until``.

        Returns the clock value afterwards.  ``max_events`` is a runaway
        guard: exceeding it raises, as that almost always indicates an
        event-scheduling loop bug rather than a legitimately long run.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        try:
            dispatched = 0
            while True:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > until:
                    break
                self.step()
                dispatched += 1
                if dispatched > max_events:
                    raise SimulationError(
                        f"dispatched more than {max_events} events; likely a loop"
                    )
            # If asked to run to a horizon beyond the last event, advance the
            # clock there so subsequent schedule() calls are relative to it.
            if math.isfinite(until) and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_idle(self) -> float:
        """Run until no events remain; returns the final clock value."""
        return self.run()
