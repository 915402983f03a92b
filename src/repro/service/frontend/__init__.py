"""Async socket frontend of the planning service.

- :mod:`repro.service.frontend.server` — the asyncio TCP server
  speaking the existing versioned JSON-lines dialect (``hello``
  preamble, ``plan_request`` in / ``plan_response`` out) in front of one
  :class:`~repro.service.service.PlanningService`, with bounded
  per-connection send queues for slow-client backpressure and
  cooperative cancellation of a disconnected client's queued work.
- :mod:`repro.service.frontend.client` — the asyncio load generator
  behind ``repro loadgen --connect``: thousands of concurrent tenant
  connections, stable tenant routing across server addresses, and a
  latency/shed-rate report.
"""

from .client import (
    LoadgenReport,
    generate_wire_workload,
    run_loadgen,
    shard_for_tenant,
)
from .server import FrontendConfig, FrontendServer, run_server

__all__ = [
    "FrontendConfig",
    "FrontendServer",
    "LoadgenReport",
    "generate_wire_workload",
    "run_loadgen",
    "run_server",
    "shard_for_tenant",
]
