"""The scheduler's table of distinct inputs.

A ``FleetScheduler`` builds, hashes and computes each distinct input
(``JobSpec.input_key``) once, whatever the number of jobs, tiers and
cache evictions that reach it.  The table is host bookkeeping: the
modelled ``ResultCache`` still sees every lookup and insertion.
"""

from unittest import mock

import pytest

import repro.serve.scheduler as scheduler_module
from repro.scenarios import get as get_scenario
from repro.serve import (Fleet, FleetScheduler, PoissonLoad, ResultCache,
                         run_load)
from repro.serve.job import JobSpec, checksum_sources, fingerprint_fields
from repro.tune.admission import serve_config

#: Six distinct inputs over 30 jobs, half of them exact-tier.
LOAD = PoissonLoad(jobs=30, seed=1, distinct_inputs=6, exact_fraction=0.5)

#: The unpatched method, for wrappers installed over it.
build_fields = JobSpec.fields


def fleet_scheduler(**kwargs) -> FleetScheduler:
    return FleetScheduler(Fleet.from_spec("2xu280+1xstratix10"), **kwargs)


@pytest.fixture
def calls():
    """Count every host-path call the table is meant to save."""
    with mock.patch.object(JobSpec, "fields", autospec=True,
                           side_effect=build_fields) as fields, \
            mock.patch.object(scheduler_module, "fingerprint_fields",
                              wraps=fingerprint_fields) as fingerprint, \
            mock.patch.object(scheduler_module, "execute_chunked",
                              wraps=scheduler_module.execute_chunked) \
            as chunked, \
            mock.patch.object(scheduler_module, "checksum_sources",
                              wraps=checksum_sources) as checksum:
        yield {"fields": fields, "fingerprint_fields": fingerprint,
               "execute_chunked": chunked, "checksum_sources": checksum}


def computed_pairs(report) -> set:
    """(input, tier) pairs the modelled cache missed on."""
    return {(outcome.spec.input_key(), outcome.result.mode_served)
            for outcome in report.completed
            if not outcome.result.cache_hit}


class TestOncePerInput:
    def test_each_distinct_input_is_built_and_computed_once(self, calls):
        report = run_load(fleet_scheduler(), LOAD)
        assert len(report.completed) == LOAD.jobs
        distinct = {outcome.spec.input_key() for outcome in report.outcomes}
        assert len(distinct) == LOAD.distinct_inputs
        # Premise: some input is served on both tiers, so a computation
        # per cache miss would run more often than once per input.
        assert len(computed_pairs(report)) > len(distinct)
        for name, counter in calls.items():
            assert counter.call_count == len(distinct), name

    def test_cache_evictions_do_not_recompute(self, calls):
        report = run_load(fleet_scheduler(cache=ResultCache(capacity=1)),
                          LOAD)
        assert report.cache["evictions"] > 0
        assert calls["execute_chunked"].call_count == LOAD.distinct_inputs
        assert calls["checksum_sources"].call_count == LOAD.distinct_inputs

    def test_modelled_cache_accounting_is_per_lookup(self):
        report = run_load(fleet_scheduler(), LOAD)
        hits = sum(outcome.result.cache_hit for outcome in report.completed)
        assert report.cache["hits"] == hits
        assert report.cache["misses"] == LOAD.jobs - hits
        assert report.cache["entries"] == len(computed_pairs(report))


class TestSharedFields:
    def test_stored_field_arrays_are_read_only(self):
        built = []

        def build(spec):
            fields = build_fields(spec)
            built.append(fields)
            return fields

        with mock.patch.object(JobSpec, "fields", autospec=True,
                               side_effect=build):
            fleet_scheduler().serve_sync([
                (0.0, JobSpec(job_id="a", seed=1, mode="exact")),
                (0.01, JobSpec(job_id="b", seed=1, mode="functional")),
            ])
        (fields,) = built
        for array in (fields.u, fields.v, fields.w):
            with pytest.raises(ValueError, match="read-only"):
                array[1, 1, 1] = 0.0

    def test_plain_and_scenario_jobs_never_share_an_entry(self, calls):
        dims = dict(nx=6, ny=9, nz=5)
        plain = JobSpec(job_id="plain", seed=3, mode="functional", **dims)
        scenario = JobSpec(job_id="scenario", seed=3, mode="functional",
                           scenario="pw-advection", **dims)
        # Premise: the two inputs carry identical bytes, so only the
        # key keeps the scenario's kernel apart from plain advection.
        ours, theirs = plain.fields(), scenario.fields()
        for name in ("u", "v", "w"):
            assert getattr(ours, name).tobytes() \
                == getattr(theirs, name).tobytes()
        assert plain.input_key() != scenario.input_key()
        calls["fields"].reset_mock()

        outcomes = fleet_scheduler().serve_sync(
            [(0.0, plain), (0.01, scenario)])
        assert calls["fields"].call_count == 2
        assert calls["execute_chunked"].call_count == 1
        results = [outcome.result for outcome in outcomes]
        assert not any(result.cache_hit for result in results)
        assert results[0].checksum == checksum_sources(
            scheduler_module.execute_chunked(serve_config(plain.grid()),
                                             plain.fields()))
        assert results[1].checksum == checksum_sources(
            get_scenario("pw-advection").kernel.reference(
                scenario.fields()))

    def test_input_key_reads_what_fields_reads(self):
        base = JobSpec(job_id="a", seed=4)
        assert JobSpec(job_id="b", tenant="birch", mode="functional",
                       allow_degrade=False, deadline_seconds=1.0,
                       seed=4).input_key() == base.input_key()
        assert JobSpec(job_id="c", seed=4, magnitude=1.0).input_key() \
            != base.input_key()
        # Scenario jobs draw from the scenario's generator, which takes
        # no magnitude.
        assert JobSpec(job_id="d", seed=4, magnitude=1.0,
                       scenario="diffusion").input_key() \
            == JobSpec(job_id="e", seed=4,
                       scenario="diffusion").input_key()
