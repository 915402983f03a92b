"""Multi-tenant planning service in front of the Conductor core.

The paper frames Conductor as a *service* customers submit deployment
problems to; this package makes the reproduction act like one:

- :class:`PlanningService` — submit/solve/cache front-end
  (:mod:`repro.service.service`);
- :class:`RequestBroker` — admission control and priority/deadline
  ordering (:mod:`repro.service.broker`);
- :func:`problem_fingerprint` + :class:`SharedPlanCache` — canonical
  problem identity and the single-flight plan cache
  (:mod:`repro.service.fingerprint`, :mod:`repro.service.cache`);
- :class:`SolverPool` — bounded parallel LP solving
  (:mod:`repro.service.pool`);
- :class:`ServiceMetrics` — request counters and latency percentiles
  (:mod:`repro.service.metrics`);
- :func:`generate_workload` — synthetic tenant traffic
  (:mod:`repro.service.workload`);
- :mod:`repro.service.frontend` — the asyncio socket frontend: one
  service behind one TCP endpoint, and the concurrent-connection load
  generator (imported explicitly; it pulls in the api layer).

Deploying an accepted plan is not a service concern:
:meth:`repro.api.Orchestrator.deploy` steps the controller loop on its
caller's thread, and :mod:`repro.fleet` runs many deployments over one
shared substrate.
"""

from .broker import AdmissionError, RequestBroker
from .cache import CacheStats, LRUCache, SharedPlanCache
from .fingerprint import (
    canonical_payload,
    problem_fingerprint,
    structural_fingerprint,
    structural_payload,
)
from .incremental import IncrementalSolver, IncrementalStats
from .metrics import ServiceMetrics
from .pool import SolverPool, solve_problem
from .requests import (
    PlanRequest,
    PlanResult,
    RequestStatus,
    SubmittedRequest,
    error_code_for_exception,
)
from .service import PlanningService, ServiceConfig
from .workload import (
    DEFAULT_MIX,
    SCENARIOS,
    generate_workload,
    problem_for_scenario,
    run_workload,
)

__all__ = [
    "AdmissionError",
    "CacheStats",
    "DEFAULT_MIX",
    "IncrementalSolver",
    "IncrementalStats",
    "LRUCache",
    "PlanRequest",
    "PlanResult",
    "PlanningService",
    "RequestBroker",
    "RequestStatus",
    "SCENARIOS",
    "ServiceConfig",
    "ServiceMetrics",
    "SharedPlanCache",
    "SolverPool",
    "SubmittedRequest",
    "canonical_payload",
    "error_code_for_exception",
    "generate_workload",
    "problem_fingerprint",
    "problem_for_scenario",
    "run_workload",
    "solve_problem",
    "structural_fingerprint",
    "structural_payload",
]
