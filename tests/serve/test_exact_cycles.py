"""Exact-tier cycle counts: the premise, and a scheduler with no engine.

The exact tier reports the cycle-accurate engine's total.  A fault-free
run's count is control only: II = 1 once the shift buffer is primed,
plus one pipeline refill per Y chunk.  It depends on the kernel
configuration and never on the wind values, so ``FleetScheduler`` runs
no engine for it: a plain job reads the closed form
(``KernelCycleModel``) on its ``serve_config``, a scenario job its
kernel's ``ScenarioKernel.cycles``, and both equal the engine.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.kernel.simulate as simulate_module
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import DataflowEngine
from repro.errors import ConfigurationError
from repro.kernel.cycle_model import KernelCycleModel
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


# -- counts without a run ------------------------------------------------------


class TestCountWithoutARun:
    """The counts the scheduler reads equal a fresh engine run."""

    @given(nx=SIDE, ny=SIDE, nz=SIDE)
    @example(nx=3, ny=3, nz=3)
    @example(nx=8, ny=8, nz=8)
    @settings(max_examples=30, deadline=None, suppress_health_check=_SLOW)
    def test_closed_form_equals_the_engine_on_serve_grids(self, nx, ny, nz):
        spec = JobSpec(job_id="j", nx=nx, ny=ny, nz=nz)
        assert (KernelCycleModel(serve_config(spec.grid())).cycles()
                == plain_cycles(spec))

    @pytest.mark.parametrize("name", scenario_names())
    @given(data=st.data(), seed=SEED)
    @settings(max_examples=8, deadline=None, suppress_health_check=_SLOW)
    def test_scenario_cycles_equal_a_run(self, name, data, seed):
        scenario = get_scenario(name)
        grid = Grid(*(data.draw(st.integers(min_value=lo, max_value=hi))
                      for lo, hi in scenario.grids.bounds))
        assert scenario.kernel.cycles(grid) == scenario.kernel.run(
            scenario.make_fields(grid, seed=seed), mode="exact")[2]

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_cycles_reject_what_run_rejects(self, name):
        kernel = get_scenario(name).kernel
        grid = Grid(4, 4, 2)
        with pytest.raises(ConfigurationError) as from_run:
            kernel.run(random_wind(grid, seed=0))
        with pytest.raises(ConfigurationError) as from_cycles:
            kernel.cycles(grid)
        assert str(from_cycles.value) == str(from_run.value)


# -- the scheduler ---------------------------------------------------------------

DIMS = dict(nx=6, ny=9, nz=5)
OTHER_DIMS = dict(nx=5, ny=7, nz=4)


def refuse_engine_run(engine: DataflowEngine):
    raise AssertionError(f"engine run of graph {engine.graph.name!r}")


@pytest.fixture
def serve_without_engine(monkeypatch):
    """Serve exact jobs on a fresh scheduler while every engine run
    raises; the engine is back once serving returns."""
    def serve(specs: list[JobSpec]) -> list:
        with monkeypatch.context() as patch:
            patch.setattr(DataflowEngine, "run", refuse_engine_run)
            return serve_exact(fleet_scheduler(), specs)
    return serve


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
            self, serve_without_engine):
        """Serving runs no engine; one engine run on the grid, of the
        first job's input, is every job's count."""
        specs = [exact_job(f"j{seed}", seed) for seed in range(4)]
        results = serve_without_engine(specs)
        assert len({result.checksum for result in results}) == 4
        once = plain_cycles(specs[0])
        assert [result.stats_cycles for result in results] == [once] * 4

    def test_two_grids_run_the_engine_twice(self, serve_without_engine):
        """Serving runs no engine; one engine run per grid is the count
        of every job on that grid, and the two grids' counts differ."""
        specs = [exact_job(f"a{seed}", seed) for seed in range(2)] \
            + [exact_job(f"b{seed}", seed, dims=OTHER_DIMS)
               for seed in range(2)]
        results = serve_without_engine(specs)
        first, second = plain_cycles(specs[0]), plain_cycles(specs[2])
        assert first != second
        assert [result.stats_cycles for result in results] == \
            [first, first, second, second]

    def test_plain_jobs_read_the_closed_form_once_per_grid(self):
        """Several exact jobs on each of two grids read
        ``KernelCycleModel.cycles`` once per grid, and every job still
        carries its grid's count."""
        specs = [exact_job(f"a{seed}", seed) for seed in range(3)] \
            + [exact_job(f"b{seed}", seed, dims=OTHER_DIMS)
               for seed in range(3)]
        with mock.patch.object(KernelCycleModel, "cycles", autospec=True,
                               side_effect=KernelCycleModel.cycles) as count:
            results = serve_exact(fleet_scheduler(), specs)
        assert count.call_count == 2
        first, second = plain_cycles(specs[0]), plain_cycles(specs[3])
        assert [result.stats_cycles for result in results] == \
            [first] * 3 + [second] * 3

    def test_scenario_jobs_run_no_engine(self, serve_without_engine):
        specs = [exact_job(f"s-{name}", 0, scenario=name,
                           dims=dict(zip("nx ny nz".split(),
                                         get_scenario(name).grids.small)))
                 for name in scenario_names()]
        results = serve_without_engine(specs)
        for spec, result in zip(specs, results):
            assert result.stats_cycles == scenario_cycles(spec), spec.job_id

    def test_plain_and_scenario_jobs_never_share_a_count(
            self, serve_without_engine):
        plain = exact_job("plain", 1)
        scenario = exact_job("scenario", 1, scenario="pw-advection")
        results = serve_without_engine([plain, scenario])
        assert results[0].stats_cycles == plain_cycles(plain)
        assert results[1].stats_cycles == scenario_cycles(scenario)
        assert results[0].stats_cycles != results[1].stats_cycles

    def test_functional_jobs_run_no_engine(self, monkeypatch):
        monkeypatch.setattr(DataflowEngine, "run", refuse_engine_run)
        spec = JobSpec(job_id="f", mode="functional", **DIMS)
        (outcome,) = fleet_scheduler().serve_sync([(0.0, spec)])
        assert outcome.result.stats_cycles is None

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
