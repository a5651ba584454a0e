"""Admission control: pricing, the degrade-or-shed ladder, deadlines."""

import pytest

from repro.faults.retry import RetryPolicy
from repro.serve import (AdmissionController, AdmissionError, Fleet, JobSpec,
                         OverloadError)
from repro.tune import quote_job


def controller(fleet=None, **kwargs):
    fleet = fleet or Fleet.from_spec("2xu280")
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, base_delay=1e-4))
    return AdmissionController(fleet, **kwargs)


class TestQuotes:
    def test_quotes_are_memoised(self):
        ctrl = controller()
        spec = JobSpec(job_id="j")
        device = ctrl.fleet.lanes[0].device
        assert ctrl.quote_for(device, spec, "functional") is ctrl.quote_for(
            device, spec, "functional")

    def test_cpu_quote_has_no_transfers(self):
        from repro.hardware import device_by_name

        quote = quote_job(device_by_name("cpu"), JobSpec(job_id="j").grid())
        assert quote.transfer_seconds == 0.0
        assert quote.service_seconds == quote.kernel_seconds

    def test_exact_quote_at_least_fast(self):
        from repro.hardware import device_by_name

        grid = JobSpec(job_id="j").grid()
        for name in ("u280", "stratix10", "v100"):
            device = device_by_name(name)
            functional = quote_job(device, grid, mode="functional")
            exact = quote_job(device, grid, mode="exact")
            assert exact.service_seconds >= functional.service_seconds

    def test_retry_budget_uses_the_jobs_keyed_stream(self):
        ctrl = controller()
        budget = ctrl.retry_budget_seconds(JobSpec(job_id="job-7"))
        keyed = ctrl.retry.for_job("job-7")
        assert budget == keyed.total_delay(keyed.max_attempts - 1)


class TestLadder:
    def test_admits_when_idle(self):
        ctrl = controller()
        decision = ctrl.decide(JobSpec(job_id="j", mode="functional"), now=0.0,
                               backlog_seconds=0.0, queue_depth=0)
        assert decision.mode_served == "functional"
        assert not decision.degraded
        assert ctrl.admitted == 1

    def test_no_lane_is_typed_admission_error(self):
        ctrl = controller()
        for lane in ctrl.fleet.lanes:
            lane.mark_lost(until=float("inf"))
        with pytest.raises(AdmissionError, match="no dispatchable"):
            ctrl.decide(JobSpec(job_id="j"), now=0.0,
                        backlog_seconds=0.0, queue_depth=0)

    def test_queue_cap_sheds(self):
        ctrl = controller(max_queue_depth=4)
        with pytest.raises(OverloadError, match="hard cap"):
            ctrl.decide(JobSpec(job_id="j"), now=0.0,
                        backlog_seconds=0.0, queue_depth=4)
        assert ctrl.shed == 1

    def test_overload_degrades_willing_exact_jobs(self):
        ctrl = controller(overload_backlog_seconds=0.01)
        decision = ctrl.decide(
            JobSpec(job_id="j", mode="exact", allow_degrade=True),
            now=0.0, backlog_seconds=0.02, queue_depth=1)
        assert decision.mode_served == "functional"
        assert decision.degraded
        assert ctrl.degraded == 1

    def test_overload_sheds_unwilling_exact_jobs(self):
        ctrl = controller(overload_backlog_seconds=0.01)
        with pytest.raises(OverloadError, match="forbids"):
            ctrl.decide(
                JobSpec(job_id="j", mode="exact", allow_degrade=False),
                now=0.0, backlog_seconds=0.02, queue_depth=1)

    def test_retired_fast_tier_name_is_a_typed_rejection(self):
        # The degraded tier is "functional"; "fast" names no serve tier.
        with pytest.raises(AdmissionError,
                           match=r"unknown mode 'fast'.*'functional'"):
            JobSpec(job_id="j", mode="fast")

    def test_overload_still_admits_fast_jobs(self):
        ctrl = controller(overload_backlog_seconds=0.01)
        decision = ctrl.decide(JobSpec(job_id="j", mode="functional"), now=0.0,
                               backlog_seconds=0.02, queue_depth=1)
        assert decision.mode_served == "functional"


class TestDeadlines:
    def test_infeasible_deadline_rejected_typed(self):
        ctrl = controller()
        with pytest.raises(AdmissionError, match="infeasible"):
            ctrl.decide(JobSpec(job_id="j", mode="functional",
                                deadline_seconds=1e-9),
                        now=0.0, backlog_seconds=0.0, queue_depth=0)
        assert ctrl.rejected == 1

    def test_generous_deadline_admitted(self):
        ctrl = controller()
        decision = ctrl.decide(JobSpec(job_id="j", deadline_seconds=10.0),
                               now=0.0, backlog_seconds=0.0, queue_depth=0)
        assert decision.estimate_seconds <= 10.0

    def test_estimate_includes_wait_and_retry_budget(self):
        ctrl = controller()
        spec = JobSpec(job_id="j", mode="functional")
        idle = ctrl.decide(spec, now=0.0, backlog_seconds=0.0,
                           queue_depth=0)
        busy = ctrl.decide(spec, now=0.0,
                           backlog_seconds=0.008, queue_depth=1)
        # Backlog spread over 2 lanes: estimate grows by backlog/2.
        assert busy.estimate_seconds == pytest.approx(
            idle.estimate_seconds + 0.004, rel=1e-6)
        assert idle.estimate_seconds > idle.quote.service_seconds

    def test_tight_deadline_degrades_before_rejecting(self):
        # Find a deadline between the exact and functional estimates.
        ctrl = controller()
        exact_spec = JobSpec(job_id="probe", mode="exact")
        functional = ctrl.best_quote(exact_spec, "functional", ctrl.fleet.lanes)
        exact = ctrl.best_quote(exact_spec, "exact", ctrl.fleet.lanes)
        assert exact.service_seconds > functional.service_seconds
        retries = ctrl.retry_budget_seconds(exact_spec)
        deadline = retries + (functional.service_seconds
                              + exact.service_seconds) / 2.0
        decision = ctrl.decide(
            JobSpec(job_id="probe", mode="exact", allow_degrade=True,
                    deadline_seconds=deadline),
            now=0.0, backlog_seconds=0.0, queue_depth=0)
        assert decision.degraded and decision.mode_served == "functional"

    def test_validation_bounds(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            controller(max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="overload_backlog"):
            controller(overload_backlog_seconds=0.0)
