"""Recurring-job calibration (paper Section 4.1).

The paper restricts Conductor to MapReduce because the model needs job
characteristics up front, and notes the alternative for everything
else: "focus on recurring jobs, where the first run would be monitored
to extract the model that would be used in subsequent runs.  The core
of our system would not have to be changed to accommodate these
methods."  This module is that method, built on the unchanged core:

- :func:`calibrate` distills a finished deployment's
  :class:`~repro.core.controller.ControllerResult` into a
  :class:`CalibrationReport` — observed per-node rates per service and
  the realized WAN uplink;
- :meth:`CalibrationReport.apply` produces corrected service
  descriptions and network conditions for the next run;
- :func:`run_recurring` demonstrates the loop: a mispredicted first run
  (which adapts mid-flight, Fig. 12 style) followed by a calibrated
  second run that plans correctly from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cloud.services import ServiceDescription
from .conditions import ActualConditions
from .controller import ControllerResult, JobController
from .problem import Goal, NetworkConditions, PlannerJob

_EPS = 1e-9


@dataclass(frozen=True)
class RateObservation:
    """Aggregated throughput evidence for one compute service."""

    service: str
    #: Mean observed per-node rate (GB/h), *including* the job's
    #: throughput_scale — i.e. directly comparable to
    #: ``job.map_rate(service)``.
    mean_rate: float
    #: Node-hours of evidence behind the mean (confidence weight).
    node_hours: float


@dataclass(frozen=True)
class CalibrationReport:
    """What the first run taught us about the world."""

    job_name: str
    #: The throughput_scale the observations already include.
    throughput_scale: float
    rates: tuple[RateObservation, ...]
    #: Best realized WAN uplink, GB/h (a lower bound on capacity).
    observed_uplink_gb_h: float | None

    def rate_for(self, service_name: str) -> RateObservation | None:
        for observation in self.rates:
            if observation.service == service_name:
                return observation
        return None

    def apply(
        self,
        services: Sequence[ServiceDescription],
        network: NetworkConditions,
    ) -> tuple[list[ServiceDescription], NetworkConditions]:
        """Corrected copies of the catalog and network conditions.

        Services without observations pass through unchanged (the next
        plan still may not pick them, exactly as before); the uplink
        only shrinks — a realized rate proves capacity *at least* that
        high, but assuming more than the believed value would be
        speculation.
        """
        calibrated = []
        for service in services:
            observation = self.rate_for(service.name)
            if observation is None or not service.can_compute:
                calibrated.append(service)
                continue
            base_rate = observation.mean_rate / max(self.throughput_scale, _EPS)
            calibrated.append(
                service.replace(throughput_gb_per_hour=base_rate)
            )
        if (
            self.observed_uplink_gb_h is not None
            and self.observed_uplink_gb_h < network.uplink_gb_per_hour - _EPS
        ):
            network = NetworkConditions(
                uplink_gb_per_hour=self.observed_uplink_gb_h,
                downlink_gb_per_hour=network.downlink_gb_per_hour,
                local_gb_per_hour=network.local_gb_per_hour,
                interservice_gb_per_hour=network.interservice_gb_per_hour,
            )
        return calibrated, network


def calibrate(
    job: PlannerJob,
    result: ControllerResult,
    network: NetworkConditions | None = None,
) -> CalibrationReport:
    """Extract a calibration report from a monitored deployment.

    Per-service rates are node-hour-weighted means of the executor's
    per-interval observations; the uplink estimate is the fastest
    sustained upload interval (a capacity lower bound; ``None`` if the
    run never uploaded).
    """
    samples: dict[str, tuple[float, float]] = {}  # name -> (rate*w, w)
    best_uplink: float | None = None
    for outcome in result.outcomes:
        for name, rate in outcome.observed_rates.items():
            if rate <= 0:
                continue
            weight = outcome.nodes.get(name, 0) * outcome.duration_hours
            if weight <= 0:
                continue
            acc, total = samples.get(name, (0.0, 0.0))
            samples[name] = (acc + rate * weight, total + weight)
        if (
            outcome.uploaded_gb > _EPS
            and outcome.duration_hours > _EPS
            and outcome.uploaded_gb < outcome.planned_upload_gb - 1e-6
        ):
            # Only under-delivering intervals reveal capacity: the plan
            # wanted more and the WAN gave this much.  Intervals that
            # met their planned volume say nothing about the ceiling —
            # treating them as evidence would "calibrate" the uplink
            # down to whatever the plan happened to schedule.
            rate = outcome.uploaded_gb / outcome.duration_hours
            if best_uplink is None or rate > best_uplink:
                best_uplink = rate
    observations = tuple(
        RateObservation(
            service=name,
            # Snap away float-summation noise: a rate that differs from
            # the truth by 1e-16 GB/h can still flip the MILP to a
            # different within-gap incumbent, which is pure instability
            # with no informational basis.
            mean_rate=round(acc / total, 9),
            node_hours=total,
        )
        for name, (acc, total) in sorted(samples.items())
    )
    return CalibrationReport(
        job_name=job.name,
        throughput_scale=job.throughput_scale,
        rates=observations,
        observed_uplink_gb_h=best_uplink,
    )


@dataclass
class RecurringRunResult:
    """First (exploratory) and second (calibrated) runs of one job."""

    first: ControllerResult
    second: ControllerResult
    report: CalibrationReport

    @property
    def replans_eliminated(self) -> int:
        return self.first.replans - self.second.replans


def run_recurring(
    job: PlannerJob,
    services: Sequence[ServiceDescription],
    goal: Goal,
    actual: ActualConditions,
    network: NetworkConditions | None = None,
    **controller_kwargs,
) -> RecurringRunResult:
    """Deploy twice: monitor the first run, calibrate, rerun.

    The first run uses the (possibly wrong) catalog beliefs and adapts
    mid-flight; the second plans against the calibrated model.  The
    world (``actual``) is identical in both runs.
    """
    network = network or NetworkConditions()
    first_controller = JobController(
        job, services, goal, network=network, **controller_kwargs
    )
    first = first_controller.run(actual)
    report = calibrate(job, first, network)
    calibrated_services, calibrated_network = report.apply(services, network)
    second_controller = JobController(
        job, calibrated_services, goal, network=calibrated_network,
        **controller_kwargs,
    )
    second = second_controller.run(actual)
    return RecurringRunResult(first=first, second=second, report=report)
