"""Exact-tier cycle counts: the premise and the scheduler's memo.

The exact tier reports the cycle-accurate engine's total.  A fault-free
run's count is control only: II = 1 once the shift buffer is primed,
plus one pipeline refill per Y chunk.  It depends on the kernel
configuration and never on the wind values, so ``FleetScheduler`` runs
the engine once per configuration per scheduler and reuses the count
for every later exact job with that configuration.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.kernel.simulate as simulate_module
import repro.scenarios.kernels as scenario_kernels
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.scenarios import get as get_scenario
from repro.scenarios import names as scenario_names
from repro.serve import Fleet, FleetScheduler
from repro.serve.job import JobSpec
from repro.tune.admission import serve_config

_SLOW = (HealthCheck.too_slow,)
#: Largest drawn extent per axis, so every drawn grid is at most 8³.
MAX_SIDE = 8

SIDE = st.integers(min_value=3, max_value=MAX_SIDE)
SEED = st.integers(min_value=0, max_value=2**16)
#: Calm to strong wind; 0.0 (no wind at all) is in range.
MAGNITUDE = st.floats(min_value=0.0, max_value=10.0)


def plain_cycles(spec: JobSpec) -> int:
    """One fresh engine run of a plain job's own input."""
    return simulate_module.simulate_kernel(
        serve_config(spec.grid()), spec.fields(), mode="exact",
    ).total_cycles


def scenario_cycles(spec: JobSpec) -> int:
    """One fresh engine run of a scenario job's own input."""
    return get_scenario(spec.scenario).kernel.run(
        spec.fields(), mode="exact")[2]


class TestPremise:
    """Every input of one configuration gives the same total_cycles."""

    @given(nx=SIDE, ny=SIDE, nz=SIDE,
           inputs=st.lists(st.tuples(SEED, MAGNITUDE), min_size=2,
                           max_size=3, unique_by=lambda pair: pair[0]))
    @example(nx=8, ny=8, nz=8, inputs=[(0, 0.0), (1, 5.0), (2, 10.0)])
    @example(nx=3, ny=3, nz=3, inputs=[(0, 0.0), (7, 7.5)])
    @settings(max_examples=8, deadline=None, suppress_health_check=_SLOW)
    def test_plain_advection_on_serve_config_grids(self, nx, ny, nz,
                                                   inputs):
        counts = {
            plain_cycles(JobSpec(job_id=f"j{seed}", nx=nx, ny=ny, nz=nz,
                                 seed=seed, magnitude=magnitude))
            for seed, magnitude in inputs
        }
        assert len(counts) == 1, counts

    @pytest.mark.parametrize("name", scenario_names())
    @given(data=st.data(),
           seeds=st.lists(SEED, min_size=1, max_size=2, unique=True),
           magnitude=MAGNITUDE)
    @settings(max_examples=4, deadline=None, suppress_health_check=_SLOW)
    def test_every_scenario_within_its_bounds(self, name, data, seeds,
                                              magnitude):
        """Each drawn seed runs the scenario's own input (its wind
        generator and boundary kind) and a random wind of that seed:
        analytic wind generators ignore the seed, so the random input
        is what varies the data for them."""
        scenario = get_scenario(name)
        nx, ny, nz = (data.draw(st.integers(min_value=lo,
                                            max_value=min(hi, MAX_SIDE)))
                      for lo, hi in scenario.grids.bounds)
        inputs = [
            JobSpec(job_id=f"j{seed}", nx=nx, ny=ny, nz=nz, seed=seed,
                    scenario=name).fields()
            for seed in seeds
        ] + [
            random_wind(Grid(nx, ny, nz), seed=seed, magnitude=magnitude)
            for seed in seeds
        ]
        counts = {scenario.kernel.run(fields, mode="exact")[2]
                  for fields in inputs}
        assert len(counts) == 1, counts


# -- the memo's scope ----------------------------------------------------------

DIMS = dict(nx=6, ny=9, nz=5)
OTHER_DIMS = dict(nx=5, ny=7, nz=4)


@pytest.fixture
def engine_runs(monkeypatch):
    """Record the configuration of every advection engine run."""
    runs = []
    real = simulate_module.simulate_kernel

    def counting(config, fields, *args, **kwargs):
        runs.append(config)
        return real(config, fields, *args, **kwargs)

    monkeypatch.setattr(simulate_module, "simulate_kernel", counting)
    # The advection scenario kernel calls the engine through its own
    # module-level import.
    monkeypatch.setattr(scenario_kernels, "simulate_kernel", counting)
    return runs


def exact_job(job_id: str, seed: int, *, dims=None,
              scenario: str | None = None) -> JobSpec:
    return JobSpec(job_id=job_id, seed=seed, mode="exact",
                   allow_degrade=False, scenario=scenario,
                   **(dims or DIMS))


def serve_exact(scheduler: FleetScheduler, specs: list[JobSpec]) -> list:
    """Serve ``specs`` spaced out in modelled time; every one exact."""
    outcomes = scheduler.serve_sync(
        [(0.05 * index, spec) for index, spec in enumerate(specs)])
    results = [outcome.result for outcome in outcomes]
    assert all(result is not None for result in results), outcomes
    assert all(result.mode_served == "exact" and not result.cache_hit
               for result in results)
    return results


def fleet_scheduler() -> FleetScheduler:
    return FleetScheduler(Fleet.from_spec("2xu280+1xstratix10"))


class TestMemoScope:
    def test_distinct_inputs_on_one_grid_run_the_engine_once(
            self, engine_runs):
        specs = [exact_job(f"j{seed}", seed) for seed in range(4)]
        results = serve_exact(fleet_scheduler(), specs)
        assert len(engine_runs) == 1
        assert len({result.checksum for result in results}) == 4

    def test_two_grids_run_the_engine_twice(self, engine_runs):
        specs = [exact_job(f"a{seed}", seed) for seed in range(2)] \
            + [exact_job(f"b{seed}", seed, dims=OTHER_DIMS)
               for seed in range(2)]
        serve_exact(fleet_scheduler(), specs)
        assert engine_runs == [serve_config(specs[0].grid()),
                               serve_config(specs[2].grid())]

    def test_plain_and_scenario_jobs_never_share_a_count(self,
                                                         engine_runs):
        plain = exact_job("plain", 1)
        scenario = exact_job("scenario", 1, scenario="pw-advection")
        results = serve_exact(fleet_scheduler(), [plain, scenario])
        assert len(engine_runs) == 2
        assert results[0].stats_cycles == plain_cycles(plain)
        assert results[1].stats_cycles == scenario_cycles(scenario)
        assert results[0].stats_cycles != results[1].stats_cycles

    def test_functional_jobs_run_no_engine(self, engine_runs):
        spec = JobSpec(job_id="f", mode="functional", **DIMS)
        (outcome,) = fleet_scheduler().serve_sync([(0.0, spec)])
        assert outcome.result.stats_cycles is None
        assert engine_runs == []

    def test_a_second_scheduler_runs_the_engine_again(self, engine_runs):
        serve_exact(fleet_scheduler(), [exact_job("first", 0)])
        serve_exact(fleet_scheduler(), [exact_job("second", 1)])
        assert len(engine_runs) == 2

    def test_every_exact_job_carries_its_own_inputs_count(self):
        specs = [exact_job(f"a{seed}", seed) for seed in range(3)] \
            + [exact_job(f"b{seed}", seed, dims=OTHER_DIMS)
               for seed in range(3)] \
            + [exact_job(f"s{seed}", seed, dims=OTHER_DIMS,
                         scenario="diffusion-batch")
               for seed in range(2)]
        results = serve_exact(fleet_scheduler(), specs)
        for spec, result in zip(specs, results):
            fresh = plain_cycles(spec) if spec.scenario is None \
                else scenario_cycles(spec)
            assert result.stats_cycles == fresh, spec.job_id
