"""Cross-backend executor conformance checks.

One behavioural contract, three substrates: every test on
:class:`ExecutorConformance` runs identically against each entry in
:data:`repro.exec.BACKENDS` — ``tests/exec/test_conformance.py``
instantiates one subclass per backend.  The suite pins the paper's
deployment invariants at the backend seam:

- **plan-only execution** — no outcome ever exceeds its interval's
  planned work, whatever actually ran underneath;
- **shortfall reporting** — a slower-than-believed world surfaces as
  ``map_shortfall`` and is absorbed by re-planning, never papered over;
- **outbid/failure surfacing** — spot losses and worker failures appear
  on the outcome (and only there), and outbid hours are never charged;
- **ledger accounting** — every cost in the result is a ledger entry,
  on every backend.

A backend that passes this suite can sit under the controller without
the controller knowing or caring which substrate it got.
"""

import numpy as np
import pytest

from repro.cloud import SpotTrace, public_cloud
from repro.core import (
    CurrentPricePredictor,
    Goal,
    NetworkConditions,
    PlannerJob,
)
from repro.core.conditions import ActualConditions
from repro.core.controller import JobController
from repro.core.spot_sim import spot_services
from repro.core.executor import FluidExecutor
from repro.exec import make_executor

NET = NetworkConditions.from_mbit_s(16.0)

#: Backend knobs sized so even the subprocess backend runs in seconds.
SMALL_OPTIONS = {"task_gb": 1.0, "payload_bytes": 1024}


class ExecutorConformance:
    """Subclass with ``backend = "<name>"``; every test runs per backend."""

    backend = "sim"

    # -- scenario builders -------------------------------------------------

    def options(self):
        return None if self.backend == "sim" else dict(SMALL_OPTIONS)

    def controller(
        self,
        *,
        input_gb=4.0,
        deadline=3.0,
        services=None,
        **kwargs,
    ) -> JobController:
        return JobController(
            PlannerJob(name="conform", input_gb=input_gb),
            services if services is not None else public_cloud(),
            Goal.min_cost(deadline_hours=deadline),
            network=NET,
            backend=self.backend,
            backend_options=self.options(),
            **kwargs,
        )

    def run(self, *, actual=None, **kwargs):
        return self.controller(**kwargs).run(
            actual or ActualConditions.as_predicted()
        )

    # -- the backend seam --------------------------------------------------

    def test_make_executor_builds_a_protocol_instance(self):
        controller = self.controller()
        from repro.core.problem import SystemState

        executor = make_executor(
            self.backend,
            controller._problem(SystemState.initial(controller.job)),
            ActualConditions.as_predicted(),
            options=self.options(),
        )
        try:
            assert isinstance(executor, FluidExecutor)
            assert executor.name == self.backend
            assert executor.bids == {}
        finally:
            executor.close()
            executor.close()  # close is idempotent

    # -- nominal completion + ledger accounting ----------------------------

    def test_completes_within_deadline(self):
        result = self.run()
        assert result.completed
        assert result.deadline_met
        assert result.replans == 0

    def test_ledger_accounts_every_dollar(self):
        result = self.run()
        assert result.total_cost > 0
        assert result.ledger.total() == pytest.approx(result.total_cost)
        assert result.total_cost == pytest.approx(
            result.plans[0].predicted_cost, rel=0.02
        )

    def test_final_state_accounts_every_byte(self):
        result = self.run()
        state = result.final_state
        assert state.map_done_gb == pytest.approx(4.0, abs=1e-4)
        assert state.source_remaining_gb == pytest.approx(0.0, abs=1e-4)

    # -- plan-only execution -----------------------------------------------

    def test_executes_only_planned_work(self):
        result = self.run()
        for outcome in result.outcomes:
            assert outcome.map_gb <= outcome.planned_map_gb + 1e-6
            assert outcome.uploaded_gb <= outcome.planned_upload_gb + 1e-6

    def test_matches_sim_fluid_accounting(self):
        """All backends share the fluid bookkeeping, so a nominal run's
        numbers are identical to the simulator's — the substrate changes
        *how* work runs, never what the controller believes happened."""
        result = self.run()
        reference = ExecutorConformance().run()
        assert result.completion_hours == reference.completion_hours
        assert result.total_cost == pytest.approx(reference.total_cost)
        assert [
            (o.index, o.map_gb, o.reduce_gb, o.cost) for o in result.outcomes
        ] == pytest.approx([
            (o.index, o.map_gb, o.reduce_gb, o.cost)
            for o in reference.outcomes
        ])

    # -- shortfall reporting + adaptation ----------------------------------

    def test_slow_world_surfaces_shortfall_and_replans(self):
        actual = ActualConditions(
            throughput_gb_per_hour={
                "ec2.m1.large": 0.22, "ec2.m1.xlarge": 0.42,
            }
        )
        result = self.run(deadline=4.0, actual=actual)
        assert result.completed
        assert result.replans >= 1
        assert any(o.map_shortfall > 0.01 for o in result.outcomes)

    # -- outbid / failure surfacing ----------------------------------------

    def test_outbid_services_surface_and_are_never_charged(self):
        prices = np.full(72, 0.16)
        prices[1:3] = 10.0  # spike above any sane bid in hours 1-2
        trace = SpotTrace(prices)
        # 8 GB cannot all be uploaded in hour 0 (7.2 GB/h), so every plan
        # that meets the 3 h deadline rents nodes inside the spike.
        result = self.controller(
            input_gb=8.0,
            deadline=3.0,
            services=spot_services(),
            predictor=CurrentPricePredictor(),
            trace=trace,
        ).run(ActualConditions(spot_traces={"ec2.m1.large.spot": trace}))
        assert result.completed
        assert any(o.outbid_services for o in result.outcomes)
        assert all(entry.unit_price < 1.0 for entry in result.ledger)

    def test_nominal_run_reports_no_failures(self):
        result = self.run()
        for outcome in result.outcomes:
            assert outcome.failed_services == []
            assert outcome.spot_data_lost_gb == 0.0
