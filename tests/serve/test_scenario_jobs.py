"""Scenario-aware serving: pricing, dispatch, cache separation."""

import pytest

import repro.scenarios as scenarios
from repro.faults.retry import RetryPolicy
from repro.serve import (AdmissionController, AdmissionError, Fleet,
                         FleetScheduler, PoissonLoad, run_load)
from repro.serve.job import JobSpec

GRID = dict(nx=6, ny=9, nz=5)


def scheduler(spec="2xu280+1xstratix10", **kwargs):
    return FleetScheduler(Fleet.from_spec(spec), **kwargs)


class TestSpec:
    def test_unknown_scenario_rejected_at_construction(self):
        with pytest.raises(AdmissionError, match="job j"):
            JobSpec(job_id="j", scenario="no-such-kernel", **GRID)

    def test_plain_jobs_have_unit_flops_scale(self):
        assert JobSpec(job_id="j", **GRID).flops_scale() == 1.0

    def test_scenario_flops_scale_comes_from_the_registry(self):
        spec = JobSpec(job_id="j", scenario="buoyancy", **GRID)
        assert spec.flops_scale() == \
            scenarios.get("buoyancy").flops_scale
        assert spec.flops_scale() != 1.0

    def test_scenario_fields_use_the_scenario_generator(self):
        import numpy as np

        plain = JobSpec(job_id="a", seed=3, **GRID).fields()
        scenario = JobSpec(job_id="b", seed=3, scenario="diffusion",
                           **GRID).fields()
        assert not np.array_equal(plain.u, scenario.u)


class TestPricing:
    def test_quote_equals_bill_for_scenario_jobs(self):
        fleet = Fleet.from_spec("1xu280+1xstratix10+cpu")
        controller = AdmissionController(
            fleet, retry=RetryPolicy(max_attempts=1))
        for scenario in (None, *scenarios.names()):
            spec = JobSpec(job_id="j", scenario=scenario, **GRID)
            for mode in ("functional", "exact"):
                for lane in fleet.lanes:
                    quote = controller.quote_for(lane.device, spec, mode)
                    billed, _ = lane.service_seconds(spec, mode)
                    assert billed == quote.service_seconds, \
                        (scenario, mode, lane.name)

    def test_heavier_scenarios_cost_more(self):
        fleet = Fleet.from_spec("1xu280")
        controller = AdmissionController(
            fleet, retry=RetryPolicy(max_attempts=1))
        device = fleet.lanes[0].device

        def service(scenario):
            spec = JobSpec(job_id="j", scenario=scenario, **GRID)
            return controller.quote_for(device, spec, "functional"
                                        ).service_seconds

        # Every registered scenario is lighter than plain advection
        # (flops_scale < 1 for buoyancy/diffusion, == 1 for the PW
        # suite) — admission prices must track that ordering.
        assert service("diffusion") < service(None)
        assert service("buoyancy") < service("diffusion")
        assert service("pw-advection") == service(None)

    def test_quote_scales_kernel_time_not_transfers(self):
        from repro.core.grid import Grid
        from repro.hardware import device_by_name
        from repro.tune.admission import quote_job

        device = device_by_name("u280")
        grid = Grid(**GRID)
        base = quote_job(device, grid, mode="functional")
        heavy = quote_job(device, grid, mode="functional", flops_scale=3.0)
        assert heavy.kernel_seconds == pytest.approx(
            3.0 * base.kernel_seconds)
        assert heavy.transfer_seconds == base.transfer_seconds
        assert heavy.service_seconds == pytest.approx(
            base.service_seconds + 2.0 * base.kernel_seconds)

    def test_quotes_memoise_per_scenario(self):
        fleet = Fleet.from_spec("1xu280")
        controller = AdmissionController(
            fleet, retry=RetryPolicy(max_attempts=1))
        device = fleet.lanes[0].device
        plain = JobSpec(job_id="a", **GRID)
        scenario = JobSpec(job_id="b", scenario="diffusion", **GRID)
        first = controller.quote_for(device, plain, "functional")
        assert controller.quote_for(device, scenario, "functional") is not first
        assert controller.quote_for(device, plain, "functional") is first


class TestServing:
    def load(self, **kwargs):
        kwargs.setdefault("rate_hz", 400.0)
        kwargs.setdefault("distinct_inputs", 4)
        return PoissonLoad(jobs=8, seed=1, **GRID, **kwargs)

    def test_scenario_load_completes(self):
        report = run_load(scheduler(), self.load(scenario="diffusion"))
        assert len(report.completed) == 8
        assert not report.failed
        assert report.load["scenario"] == "diffusion"

    def test_plain_load_omits_the_scenario_key(self):
        report = run_load(scheduler(), self.load())
        assert "scenario" not in report.load

    def test_scenario_results_checksum_against_the_reference(self):
        from repro.serve.job import checksum_sources

        report = run_load(scheduler(), self.load(scenario="diffusion",
                                                 distinct_inputs=1))
        scenario = scenarios.get("diffusion")
        spec = report.completed[0].spec
        expected = checksum_sources(
            scenario.kernel.reference(spec.fields()))
        for outcome in report.completed:
            assert outcome.result.checksum == expected

    def test_exact_tier_bills_scenario_cycles(self):
        report = run_load(scheduler(), self.load(scenario="diffusion",
                                                 exact_fraction=1.0))
        for outcome in report.completed:
            if not outcome.result.cache_hit:
                assert outcome.result.stats_cycles > 0

    def test_scenario_and_plain_runs_never_share_cache_entries(self):
        """Same input bytes, different kernel => different cache rows."""
        sched = scheduler()
        plain = JobSpec(job_id="plain", mode="functional", **GRID)
        # pw-advection serves the same advection numerics through the
        # scenario path; its fingerprint must still be scenario-scoped.
        scenario = JobSpec(job_id="scen", mode="functional",
                           scenario="pw-advection", **GRID)
        outcomes = sched.serve_sync([(0.0, plain), (1.0, scenario)])
        assert all(outcome.ok for outcome in outcomes)
        assert not outcomes[1].result.cache_hit

    def test_replay_is_deterministic(self):
        first = run_load(scheduler(),
                         self.load(scenario="buoyancy")).to_dict()
        second = run_load(scheduler(),
                          self.load(scenario="buoyancy")).to_dict()
        assert first == second
