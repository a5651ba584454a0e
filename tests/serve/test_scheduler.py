"""Fleet scheduler: lifecycle, resharding, recovery, typed failure."""

import math
import subprocess
import sys

import pytest

from repro.errors import WatchdogTimeout
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.serve import (AdmissionController, AdmissionError,
                         DeadlineExceededError, Fleet, FleetDownError,
                         FleetScheduler, PoissonLoad, ResultCache,
                         build_arrivals, percentile, run_load)

GRID = dict(nx=6, ny=9, nz=5)


def scheduler(spec="2xu280+1xstratix10", **kwargs):
    return FleetScheduler(Fleet.from_spec(spec), **kwargs)


def small_load(jobs=8, **kwargs):
    kwargs.setdefault("rate_hz", 400.0)
    kwargs.setdefault("exact_fraction", 0.25)
    kwargs.setdefault("distinct_inputs", 4)
    return PoissonLoad(jobs=jobs, seed=1, **GRID, **kwargs)


class TestFaultFree:
    def test_all_jobs_complete(self):
        report = run_load(scheduler(), small_load())
        assert len(report.completed) == 8
        assert not report.failed
        assert report.jobs_per_second > 0

    def test_replay_is_deterministic(self):
        first = run_load(scheduler(), small_load()).to_dict()
        second = run_load(scheduler(), small_load()).to_dict()
        assert first == second

    def test_duplicate_inputs_hit_the_cache(self):
        report = run_load(scheduler(), small_load(jobs=8,
                                                  distinct_inputs=2))
        assert report.counters()["cache_hits"] > 0
        hits = [outcome for outcome in report.completed
                if outcome.result.cache_hit]
        misses = {outcome.result.checksum
                  for outcome in report.completed
                  if not outcome.result.cache_hit}
        for outcome in hits:
            assert outcome.result.device == "cache"
            assert outcome.result.checksum in misses

    def test_exact_tier_carries_cycle_stats(self):
        report = run_load(scheduler(), small_load(exact_fraction=1.0,
                                                  jobs=3))
        for outcome in report.completed:
            if not outcome.result.cache_hit:
                assert outcome.result.stats_cycles > 0

    def test_checksums_are_input_pure(self):
        """Same wind seed => same checksum, whatever lane/tier served it."""
        report = run_load(scheduler(), small_load(jobs=8,
                                                  distinct_inputs=2))
        by_seed = {}
        for outcome in report.completed:
            by_seed.setdefault(outcome.spec.seed, set()).add(
                outcome.result.checksum)
        for sums in by_seed.values():
            assert len(sums) == 1

    def test_cache_can_be_disabled(self):
        report = run_load(scheduler(cache=ResultCache(capacity=0)),
                          small_load(jobs=6, distinct_inputs=2))
        assert report.counters()["cache_hits"] == 0


class TestDeviceLoss:
    PLAN = [FaultSpec("device", "loss", match="u280-0", probability=1.0,
                      count=1)]

    def test_inflight_job_reshards_and_completes_bit_identical(self):
        load = small_load()
        golden = {o.spec.job_id: o.result.checksum
                  for o in run_load(scheduler(), load).completed}
        plan = FaultPlan(self.PLAN, seed=0)
        report = run_load(scheduler(fault_plan=plan), load)
        assert len(report.completed) == 8
        assert report.counters()["reshards"] >= 1
        for outcome in report.completed:
            assert outcome.result.checksum == golden[outcome.spec.job_id]

    def test_lost_lane_serves_nothing_afterwards(self):
        plan = FaultPlan(self.PLAN, seed=0)
        report = run_load(scheduler(fault_plan=plan), small_load(jobs=10))
        lanes = {o.result.device for o in report.completed
                 if not o.result.cache_hit}
        # u280-0 died on its first dispatch: every later job lands on
        # the survivors.
        assert "u280-0" not in lanes
        assert lanes <= {"u280-1", "stratix10-0"}

    def test_loss_trips_breaker_open_permanently(self):
        plan = FaultPlan(self.PLAN, seed=0)
        sched = scheduler(fault_plan=plan)
        run_load(sched, small_load())
        lane = sched.fleet.lane("u280-0")
        assert lane.lost_until == math.inf
        assert lane.breaker.state.value == "open"

    def test_all_lanes_lost_fails_typed(self):
        plan = FaultPlan([FaultSpec("device", "loss", match="*",
                                    probability=1.0, count=None)], seed=0)
        report = run_load(scheduler("2xu280", fault_plan=plan),
                          small_load())
        assert report.completed == []
        for outcome in report.failed:
            assert isinstance(outcome.error,
                              (FleetDownError, AdmissionError))


class TestBlipRecovery:
    def test_breaker_reopens_then_readmits(self):
        plan = FaultPlan([FaultSpec("device", "blip", match="u280-0",
                                    probability=1.0, count=1,
                                    seconds=0.01)], seed=0)
        sched = scheduler(fault_plan=plan)
        report = run_load(sched, small_load(jobs=10, rate_hz=150.0))
        assert not report.failed
        moves = [(t["from"], t["to"])
                 for t in report.breaker_transitions()
                 if t["lane"] == "u280-0"]
        assert ("closed", "open") in moves
        assert ("open", "half-open") in moves
        assert ("half-open", "closed") in moves
        assert sched.fleet.lane("u280-0").lost_until is None

    def test_default_blip_downtime_applies(self):
        plan = FaultPlan([FaultSpec("device", "blip", match="u280-0",
                                    probability=1.0, count=1)], seed=0)
        sched = scheduler(fault_plan=plan, blip_seconds=0.004)
        run_load(sched, small_load(jobs=4))
        lane = sched.fleet.lane("u280-0")
        # Revived by a probe after the default downtime elapsed.
        assert lane.lost_until is None


class TestTransferFaults:
    def test_redrives_accumulate_breaker_evidence(self):
        plan = FaultPlan([FaultSpec("transfer", "fail",
                                    match="u280-0:*", probability=0.9,
                                    count=6)], seed=3)
        sched = scheduler("2xu280", fault_plan=plan)
        report = run_load(sched, small_load(jobs=10, exact_fraction=0.0,
                                            distinct_inputs=10))
        assert not report.failed
        moves = [(t["from"], t["to"])
                 for t in report.breaker_transitions()]
        assert ("closed", "open") in moves
        assert ("half-open", "closed") in moves  # re-admitted


class TestDeadlines:
    def test_impossible_deadline_rejected_at_admission(self):
        report = run_load(scheduler(),
                          small_load(jobs=4, deadline_seconds=1e-9))
        assert report.completed == []
        assert all(isinstance(o.error, AdmissionError)
                   for o in report.failed)

    def test_feasible_deadline_met_fault_free(self):
        report = run_load(scheduler(),
                          small_load(jobs=4, rate_hz=100.0,
                                     deadline_seconds=0.5))
        assert not report.failed

    def test_queued_past_deadline_fails_typed(self):
        # One slow lane, bursty arrivals, deadlines the queue wait blows.
        fleet = Fleet.from_spec("1xstratix10")
        retry = RetryPolicy(max_attempts=3, base_delay=1e-4)
        # Admission estimates optimistically (quote-based), so a
        # moderately tight deadline admits but later jobs time out in
        # the queue behind exact-tier work.
        admission = AdmissionController(
            fleet, retry=retry, overload_backlog_seconds=10.0)
        sched = FleetScheduler(fleet, admission=admission, retry=retry)
        load = small_load(jobs=12, rate_hz=5000.0, exact_fraction=0.0,
                          distinct_inputs=12, deadline_seconds=0.004)
        report = run_load(sched, load)
        assert report.failed
        for outcome in report.failed:
            assert isinstance(outcome.error,
                              (DeadlineExceededError, AdmissionError))


class TestWatchdog:
    def test_global_watchdog_fails_stragglers_typed(self):
        plan = FaultPlan([FaultSpec("device", "blip", match="*",
                                    probability=1.0, count=None,
                                    seconds=0.5)], seed=0)
        sched = scheduler("1xu280", fault_plan=plan,
                          watchdog_seconds=0.05, max_reshards=100)
        report = run_load(sched, small_load(jobs=3, exact_fraction=0.0))
        assert report.completed == []
        assert any(isinstance(o.error, WatchdogTimeout)
                   for o in report.failed)


#: Two submissions of distinct inputs whose input build raises an
#: error that is not a ReproError: a scheduler defect.
TWO_DEFECTS = """
import gc

from repro.serve import Fleet, FleetScheduler, JobSpec


class Defect(Exception):
    pass


def broken_fields(self):
    raise Defect(self.job_id)


JobSpec.fields = broken_fields
scheduler = FleetScheduler(Fleet.from_spec("1xu280"))
try:
    scheduler.serve_sync([(0.0, JobSpec("a", seed=1)),
                          (0.0, JobSpec("b", seed=2))])
except Defect as error:
    print("defect", error)
gc.collect()
"""


class TestDefects:
    def test_every_submission_is_retrieved_before_the_defect_raises(self):
        """The first defect propagates only after every task has been
        awaited: asyncio's debug mode reports no unretrieved task
        exception, and warnings are errors."""
        try:
            child = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-c",
                 TWO_DEFECTS],
                capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("serve hung after a scheduler defect")
        assert child.returncode == 0, child.stderr
        assert child.stdout == "defect a\n"
        assert child.stderr == ""


class TestReportShape:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile([], 0.5) == 0.0

    def test_to_dict_is_json_clean(self):
        import json

        report = run_load(scheduler(), small_load(jobs=4))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed"] == 4
        assert payload["jobs_per_second"] > 0

    def test_arrivals_sorted_and_seeded(self):
        one = build_arrivals(small_load())
        two = build_arrivals(small_load())
        assert [t for t, _ in one] == sorted(t for t, _ in one)
        assert [(t, s.job_id, s.mode, s.seed) for t, s in one] == \
               [(t, s.job_id, s.mode, s.seed) for t, s in two]

    def test_tenant_rollup_partitions_jobs(self):
        report = run_load(scheduler(), small_load(jobs=6))
        rollup = report.tenant_rollup()
        assert sum(row["submitted"] for row in rollup.values()) == 6
