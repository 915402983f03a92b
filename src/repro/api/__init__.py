"""The versioned public API — the only way work enters the system.

Three layers:

- **schemas** (:mod:`repro.api.schemas`): frozen, serializable request/
  response types tagged with a ``schema_version`` — :class:`JobSpec`,
  :class:`GoalSpec`, :class:`NetworkSpec`, :class:`PlanRequestV1`,
  :class:`PlanResponseV1`, :class:`DeployEventV1`, :class:`ErrorV1` —
  plus :func:`decode`/:func:`encode` for the JSON-lines wire format;
- **facade** (:mod:`repro.api.orchestrator`): the :class:`Orchestrator`
  with ``plan(spec)`` / ``submit(spec)`` / ``deploy(spec)``, shared by
  library users, the CLI and the planning service;
- **adapters** (:mod:`repro.api.adapters`): :func:`from_pig` and
  :func:`from_workload` compile the existing front-ends into
  ``JobSpec``.

Quickstart::

    from repro.api import GoalSpec, JobSpec, Orchestrator

    spec = JobSpec(input_gb=32.0, goal=GoalSpec(deadline_hours=6.0))
    plan = Orchestrator().plan(spec)
    print(plan.describe())
"""

from .schemas import (
    CATALOGS,
    DEPLOY_EVENT_KINDS,
    DeployEventV1,
    ERROR_CODES,
    ErrorV1,
    GoalSpec,
    HelloV1,
    JobSpec,
    NetworkSpec,
    PlanRequestV1,
    PlanResponseV1,
    RESPONSE_STATUSES,
    SCHEMA_VERSION,
    SchemaError,
    decode,
    encode,
)
from .errors import error_v1_for_result, error_v1_from_exception
from .adapters import (
    PIG_SCRIPT,
    SCENARIOS,
    from_pig,
    from_workload,
)
from .compiler import (
    DEFAULT_SPOT_PRICE,
    compile_spec,
    resolve_services,
    scenario_for,
    spot_estimates_for,
)
from .orchestrator import Orchestrator, OrchestratorError

__all__ = [
    "CATALOGS",
    "DEPLOY_EVENT_KINDS",
    "DEFAULT_SPOT_PRICE",
    "DeployEventV1",
    "ERROR_CODES",
    "ErrorV1",
    "GoalSpec",
    "HelloV1",
    "JobSpec",
    "NetworkSpec",
    "Orchestrator",
    "OrchestratorError",
    "PIG_SCRIPT",
    "PlanRequestV1",
    "PlanResponseV1",
    "RESPONSE_STATUSES",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "SchemaError",
    "compile_spec",
    "decode",
    "encode",
    "error_v1_for_result",
    "error_v1_from_exception",
    "from_pig",
    "from_workload",
    "resolve_services",
    "scenario_for",
    "spot_estimates_for",
]
