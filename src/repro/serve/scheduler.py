"""The asyncio fleet scheduler: admit, queue, shard, survive, answer.

:class:`FleetScheduler` accepts concurrent advection jobs and drives
them across the simulated device fleet under deterministic virtual time
(:mod:`repro.serve.clock`).  The life of a job:

1. **Cache** — the input fingerprint x mode is looked up; a hit answers
   instantly from the host, no device time billed.  Each distinct input
   (:meth:`~repro.serve.job.JobSpec.input_key`) is built and hashed
   once per scheduler, and its sources are computed once for both
   tiers; that table is host bookkeeping, invisible to the modelled
   cache's hit, miss and eviction accounting.
2. **Admission** — the :class:`~repro.serve.admission.AdmissionController`
   prices the job with the :mod:`repro.tune` cost model and either
   admits (possibly degrading exact->functional), or raises a typed
   rejection.  Admitted jobs enter an earliest-deadline-first queue.
3. **Dispatch** — one worker per device lane pulls jobs.  Each dispatch
   draws the fault plan's ``device`` site for its lane: a drawn fault
   kills the device mid-job (permanently for ``loss``, for the spec's
   downtime on ``blip``), trips the lane's circuit breaker open, and
   *reshards* the in-flight job back onto the queue for a survivor.
4. **Billing** — the lane runs its namespaced overlapped schedule
   through the discrete-event simulator; injected transfer faults cost
   redrives (breaker evidence) or, exhausted, reshard the job.
5. **Answer** — the numeric sources are computed on the *host* by the
   device-independent functional path, so where a job ran — or how
   often it was resharded — can never change its bytes.  Exact-tier
   jobs additionally carry the cycle-accurate engine's count, read
   without a run: a fault-free run's count is control, never data
   (``tests/serve/test_exact_cycles.py`` pins that premise).  The
   checksum over the sources is the bit-identity witness the chaos
   gate compares across legs.

Recovery: a worker whose breaker is open sleeps until the half-open
probe is due, probes the device, and either re-closes the breaker
(lane re-admitted) or re-opens it for another cooldown.  If every lane
is permanently lost, all unresolved jobs fail with a typed
:class:`~repro.serve.errors.FleetDownError` — never a hang.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import RetryExhaustedError, WatchdogTimeout
from repro.faults.retry import RetryPolicy
from repro.kernel.cycle_model import KernelCycleModel
from repro.kernel.functional import execute_chunked
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.clock import VirtualClock, run_virtual
from repro.serve.errors import (DeadlineExceededError, FleetDownError,
                                ReshardExhaustedError)
from repro.serve.fleet import DeviceLane, Fleet
from repro.serve.job import (JobResult, JobSpec, checksum_sources,
                             fingerprint_fields)
from repro.tune.admission import serve_config

if TYPE_CHECKING:
    from repro.core.fields import FieldSet, SourceSet
    from repro.core.grid import Grid
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["FleetScheduler", "JobOutcome", "DEVICE_LOSS_FRACTION",
           "DEFAULT_BLIP_SECONDS"]

#: Fraction of a job's service time that elapses before a drawn device
#: fault strikes — the device dies mid-job, not between jobs.
DEVICE_LOSS_FRACTION: float = 0.5

#: Downtime of a ``blip`` fault whose spec left ``seconds`` unset.
DEFAULT_BLIP_SECONDS: float = 0.02

#: Modelled cost of one half-open health probe.
PROBE_SECONDS: float = 1e-4


@dataclass
class _Input:
    """One distinct input of a scheduler, built, hashed and computed once."""

    #: read-only: every job with this input shares the arrays.
    fields: "FieldSet"
    #: the cache key's input half (scenario jobs carry a name prefix).
    fingerprint: str
    #: the sources and their checksum, set by the first computation.
    sources: "SourceSet | None" = None
    checksum: str = ""


@dataclass
class _JobRecord:
    """Scheduler-internal state of one admitted job."""

    spec: JobSpec
    decision: AdmissionDecision
    job_input: _Input
    submitted_at: float
    seq: int
    future: "asyncio.Future[JobResult]"
    reshards: int = 0
    redrives: int = 0
    #: set by a reshard, cleared by the worker that picks the job up.
    resharded_flag: bool = False
    last_lane: str | None = None

    @property
    def deadline_at(self) -> float | None:
        if self.spec.deadline_seconds is None:
            return None
        return self.submitted_at + self.spec.deadline_seconds

    def priority(self) -> tuple[float, int]:
        deadline = self.deadline_at
        return (math.inf if deadline is None else deadline, self.seq)


@dataclass(frozen=True)
class JobOutcome:
    """One submission's final fate: a result or a typed error."""

    spec: JobSpec
    result: JobResult | None = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class FleetScheduler:
    """Deterministic asyncio scheduler over a simulated device fleet."""

    def __init__(self, fleet: Fleet, *,
                 clock: VirtualClock | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 retry: RetryPolicy | None = None,
                 admission: AdmissionController | None = None,
                 cache: ResultCache | None = None,
                 metrics: "MetricRegistry | None" = None,
                 tracer: "Tracer | None" = None,
                 watchdog_seconds: float | None = None,
                 max_reshards: int = 3,
                 blip_seconds: float = DEFAULT_BLIP_SECONDS) -> None:
        self.fleet = fleet
        self.clock = clock if clock is not None else VirtualClock()
        self.fault_plan = fault_plan
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=1e-4,
        )
        self.admission = admission if admission is not None else (
            AdmissionController(fleet, retry=self.retry)
        )
        self.cache = cache if cache is not None else ResultCache()
        self.metrics = metrics
        self.tracer = tracer
        self.watchdog_seconds = watchdog_seconds
        self.max_reshards = max_reshards
        self.blip_seconds = blip_seconds

        self._queue: "asyncio.PriorityQueue[tuple[float, int, str]]" | None \
            = None
        self._records: dict[str, _JobRecord] = {}
        self._results: list[JobResult] = []
        self._seq = 0
        self._queued = 0
        self._backlog_seconds = 0.0
        self._workers: list["asyncio.Task[None]"] = []
        self._started = False
        #: scenario jobs' cycle counts (see _exact_cycles).
        self._scenario_cycles: dict[tuple[str, Grid], int] = {}
        #: distinct inputs by JobSpec.input_key (see _input).
        self._inputs: dict[tuple[Any, ...], _Input] = {}

    # -- lifecycle ----------------------------------------------------------

    def _start(self) -> None:
        """Create loop-bound state and lane workers (idempotent)."""
        if self._started:
            return
        self._queue = asyncio.PriorityQueue()
        self._workers = [
            asyncio.ensure_future(self._lane_worker(lane))
            for lane in self.fleet.lanes
        ]
        self._started = True

    async def _shutdown(self) -> None:
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._started = False

    # -- submission ---------------------------------------------------------

    async def submit(self, spec: JobSpec) -> JobResult:
        """Submit one job; returns its result or raises a typed error."""
        self._start()
        assert self._queue is not None
        now = self.clock.now
        job_input = self._input(spec)
        entry = self.cache.get(job_input.fingerprint, spec.mode)
        if entry is not None:
            result = JobResult(
                job_id=spec.job_id, tenant=spec.tenant, device="cache",
                mode_served=spec.mode, degraded=False, cache_hit=True,
                submitted_at=now, finished_at=now,
                checksum=entry.checksum, stats_cycles=entry.stats_cycles,
            )
            self._account(result)
            return result

        decision = self.admission.decide(
            spec, now=now, backlog_seconds=self._backlog_seconds,
            queue_depth=self._queued,
        )

        loop = asyncio.get_running_loop()
        self._seq += 1
        record = _JobRecord(
            spec=spec, decision=decision, job_input=job_input,
            submitted_at=now, seq=self._seq, future=loop.create_future(),
        )
        self._records[spec.job_id] = record
        self._enqueue(record)
        if self.tracer is not None:
            self.tracer.instant("admit", "queue", ts=now,
                                job=spec.job_id, mode=decision.mode_served)
        return await record.future

    def _input(self, spec: JobSpec) -> _Input:
        """``spec``'s entry in the input table, built on first use."""
        key = spec.input_key()
        job_input = self._inputs.get(key)
        if job_input is None:
            fields = spec.fields()
            for array in (fields.u, fields.v, fields.w):
                array.flags.writeable = False
            fingerprint = fingerprint_fields(fields)
            if spec.scenario is not None:
                # A scenario job's numbers come from a different kernel,
                # so its results must never collide with an advection
                # job that happens to carry identical input bytes.
                fingerprint = f"{spec.scenario}:{fingerprint}"
            job_input = self._inputs[key] = _Input(fields, fingerprint)
        return job_input

    def _enqueue(self, record: _JobRecord) -> None:
        assert self._queue is not None
        deadline_key, seq = record.priority()
        self._queue.put_nowait((deadline_key, seq, record.spec.job_id))
        self._queued += 1
        self._backlog_seconds += record.decision.quote.service_seconds
        if self.metrics is not None:
            self.metrics.gauge(
                "serve_queue_depth",
                "high-water mark of the admitted-job queue",
            ).set_max(self._queued)

    # -- completion helpers -------------------------------------------------

    def _account(self, result: JobResult) -> None:
        self._results.append(result)
        if self.metrics is not None:
            self.metrics.counter(
                "serve_jobs_total", "completed jobs by tenant and path",
            ).inc(tenant=result.tenant, device=result.device,
                  mode=result.mode_served,
                  cache="hit" if result.cache_hit else "miss")
            self.metrics.histogram(
                "serve_latency_seconds", "job latency by tenant",
            ).observe(result.latency_seconds, tenant=result.tenant)

    def _resolve(self, record: _JobRecord, result: JobResult) -> None:
        if not record.future.done():
            record.future.set_result(result)
            self._account(result)

    def _fail(self, record: _JobRecord, error: BaseException) -> None:
        if not record.future.done():
            record.future.set_exception(error)
            if self.metrics is not None:
                self.metrics.counter(
                    "serve_failures_total", "typed job failures by class",
                ).inc(tenant=record.spec.tenant,
                      error=type(error).__name__)

    def _fail_all_unresolved(self, reason: str) -> None:
        for record in self._records.values():
            if not record.future.done():
                self._fail(record, FleetDownError(
                    f"job {record.spec.job_id}: {reason}"
                ))

    # -- lane workers -------------------------------------------------------

    async def _lane_worker(self, lane: DeviceLane) -> None:
        assert self._queue is not None
        while True:
            if not lane.breaker.allows_dispatch():
                retired = await self._recover(lane)
                if retired:
                    return
                continue
            _, _, job_id = await self._queue.get()
            record = self._records[job_id]
            self._queued -= 1
            self._backlog_seconds = max(
                0.0,
                self._backlog_seconds
                - record.decision.quote.service_seconds,
            )
            if record.future.done():
                continue  # failed while queued (watchdog / fleet-down)
            if record.resharded_flag:
                record.resharded_flag = False
                if record.last_lane != lane.name:
                    lane.reshards_received += 1
            now = self.clock.now
            deadline = record.deadline_at
            if deadline is not None and now > deadline:
                self._fail(record, DeadlineExceededError(
                    f"job {job_id}: deadline blew while queued "
                    f"({now:.6f} > {deadline:.6f})"
                ))
                continue
            await self._serve_on(lane, record)

    async def _recover(self, lane: DeviceLane) -> bool:
        """Breaker-open lane: wait out the cooldown, probe, maybe retire.

        Returns True when the lane is permanently lost and its worker
        should exit.
        """
        if lane.lost_until == math.inf:
            return True
        wait = max(lane.breaker.probe_at() - self.clock.now, 0.0)
        await self.clock.sleep(wait)
        lane.breaker.begin_probe(self.clock.now)
        await self.clock.sleep(PROBE_SECONDS)
        now = self.clock.now
        if lane.probe_healthy(now):
            lane.revive()
            lane.breaker.record_success(now)
            if self.tracer is not None:
                self.tracer.instant("probe-ok", lane.name, ts=now)
        else:
            lane.breaker.record_failure(now, "probe: device still down")
            if self.tracer is not None:
                self.tracer.instant("probe-fail", lane.name, ts=now)
        if self.metrics is not None:
            self.metrics.counter(
                "serve_probes_total", "half-open probes by lane and fate",
            ).inc(lane=lane.name,
                  outcome="ok" if lane.lost_until is None else "fail")
        return False

    async def _serve_on(self, lane: DeviceLane, record: _JobRecord) -> None:
        spec = record.spec
        mode = record.decision.mode_served
        start = self.clock.now
        record.last_lane = lane.name
        job_retry = self.retry.for_job(spec.job_id)

        device_spec = (self.fault_plan.device_fault(lane.name)
                       if self.fault_plan is not None else None)
        if device_spec is not None:
            await self._device_down(lane, record, device_spec, mode)
            return

        deadline = record.deadline_at
        budget = None if deadline is None else max(deadline - start, 0.0)
        try:
            seconds, redrives = lane.service_seconds(
                spec, mode, fault_plan=self.fault_plan, retry=job_retry,
                watchdog_seconds=budget,
            )
        except WatchdogTimeout as err:
            await self.clock.sleep(budget or 0.0)
            now = self.clock.now
            lane.breaker.record_failure(now, "service watchdog")
            deadline_err = DeadlineExceededError(
                f"job {spec.job_id}: service watchdog fired on "
                f"{lane.name} at t={now:.6f} (deadline "
                f"{deadline if deadline is not None else 'none'})"
            )
            deadline_err.__cause__ = err
            self._fail(record, deadline_err)
            return
        except RetryExhaustedError as err:
            # The lane burned the whole transfer-retry budget: strong
            # breaker evidence, and the job deserves a survivor.
            await self.clock.sleep(record.decision.quote.service_seconds)
            now = self.clock.now
            for _ in range(max(job_retry.max_attempts - 1, 1)):
                lane.breaker.record_failure(now, "transfer retries exhausted")
            self._reshard_or_fail(record, lane, err,
                                  reason="transfer retries exhausted")
            return

        await self.clock.sleep(seconds)
        now = self.clock.now
        lane.jobs_served += 1
        record.redrives += redrives
        if redrives:
            for _ in range(redrives):
                lane.breaker.record_failure(now, "pcie redrive")
            if self.metrics is not None:
                self.metrics.counter(
                    "serve_redrives_total", "transfer redrives by lane",
                ).inc(lane=lane.name, amount=float(redrives))
        else:
            lane.breaker.record_success(now)

        if deadline is not None and now > deadline:
            self._fail(record, DeadlineExceededError(
                f"job {spec.job_id}: finished at t={now:.6f}, after "
                f"deadline t={deadline:.6f} (redrives={redrives})"
            ))
            return

        checksum, stats_cycles = self._compute(record, mode)
        result = JobResult(
            job_id=spec.job_id, tenant=spec.tenant, device=lane.name,
            mode_served=mode, degraded=record.decision.degraded,
            cache_hit=False, submitted_at=record.submitted_at,
            finished_at=now, checksum=checksum, stats_cycles=stats_cycles,
            reshards=record.reshards, transfer_redrives=record.redrives,
        )
        self._resolve(record, result)
        if self.tracer is not None:
            self.tracer.add_span(
                spec.job_id, lane.name, start, now, category="serve",
                tenant=spec.tenant, mode=mode, redrives=redrives,
                reshards=record.reshards,
            )

    async def _device_down(self, lane: DeviceLane, record: _JobRecord,
                           fault: Any, mode: str) -> None:
        """A drawn device fault: kill the lane mid-job, reshard the job."""
        clean_seconds, _ = lane.service_seconds(record.spec, mode)
        await self.clock.sleep(clean_seconds * DEVICE_LOSS_FRACTION)
        now = self.clock.now
        if fault.kind == "loss":
            downtime: float = math.inf
        else:
            downtime = (fault.seconds if fault.seconds is not None
                        else self.blip_seconds)
        lane.mark_lost(now + downtime)
        lane.breaker.force_open(now, f"device {fault.kind}")
        if self.tracer is not None:
            self.tracer.instant(f"device-{fault.kind}", lane.name, ts=now,
                                job=record.spec.job_id)
        if self.metrics is not None:
            self.metrics.counter(
                "serve_device_faults_total", "device faults by lane/kind",
            ).inc(lane=lane.name, kind=fault.kind)
        self._reshard_or_fail(
            record, lane, None, reason=f"device {fault.kind} on {lane.name}",
        )
        if not self.fleet.recoverable(now):
            self._fail_all_unresolved(
                "every device lane permanently lost"
            )

    def _reshard_or_fail(self, record: _JobRecord, lane: DeviceLane,
                         error: BaseException | None, *,
                         reason: str) -> None:
        record.reshards += 1
        if record.reshards > self.max_reshards:
            if error is None:
                error = ReshardExhaustedError(
                    f"job {record.spec.job_id}: resharded "
                    f"{record.reshards} times (budget "
                    f"{self.max_reshards}); last: {reason}"
                )
            self._fail(record, error)
            return
        record.resharded_flag = True
        self._enqueue(record)
        if self.metrics is not None:
            self.metrics.counter(
                "serve_reshards_total", "in-flight job reshards",
            ).inc(from_lane=lane.name, tenant=record.spec.tenant)
        if self.tracer is not None:
            self.tracer.instant("reshard", lane.name, ts=self.clock.now,
                                job=record.spec.job_id, reason=reason)

    # -- the answer ---------------------------------------------------------

    def _compute(self, record: _JobRecord,
                 mode: str) -> tuple[str, int | None]:
        """Host-side numeric result (+ exact-tier cycle stats).

        Sources always come from the device-independent functional
        path, so the checksum is a pure function of the input — the
        invariant that makes resharding and degradation bit-identical
        by construction.  They are computed once per distinct input and
        reused for the other tier and after a cache eviction.  Scenario
        jobs take the scenario kernel's reference numerics.  Exact-tier
        cycles come from :meth:`_exact_cycles`, which runs no engine.
        """
        job_input = record.job_input
        sources = job_input.sources
        if sources is None:
            if record.spec.scenario is not None:
                from repro.scenarios import get as get_scenario

                sources = get_scenario(
                    record.spec.scenario).kernel.reference(job_input.fields)
            else:
                sources = execute_chunked(
                    serve_config(record.spec.grid()), job_input.fields)
            job_input.sources = sources
            job_input.checksum = checksum_sources(sources)
        stats_cycles = self._exact_cycles(record.spec) if mode == "exact" \
            else None
        self.cache.put(job_input.fingerprint, mode,
                       CacheEntry(checksum=job_input.checksum,
                                  sources=sources,
                                  stats_cycles=stats_cycles))
        return job_input.checksum, stats_cycles

    def _exact_cycles(self, spec: JobSpec) -> int:
        """Cycle-accurate total of one exact-tier job, without a run.

        A plain job reads the closed form on its ``serve_config``; a
        scenario job its kernel's
        :meth:`~repro.scenarios.base.ScenarioKernel.cycles`, kept per
        (scenario, grid), since a stencil kernel's is a proof of a few
        milliseconds.  Both equal the engine's fault-free count.
        """
        grid = spec.grid()
        if spec.scenario is None:
            return KernelCycleModel(serve_config(grid)).cycles()
        key = (spec.scenario, grid)
        cycles = self._scenario_cycles.get(key)
        if cycles is None:
            from repro.scenarios import get as get_scenario

            cycles = self._scenario_cycles[key] = get_scenario(
                spec.scenario).kernel.cycles(grid)
        return cycles

    # -- batch entry points -------------------------------------------------

    async def serve(self, arrivals: list[tuple[float, JobSpec]],
                    ) -> list[JobOutcome]:
        """Run a full arrival schedule; one outcome per submission.

        Typed :class:`~repro.errors.ReproError` failures become
        outcomes; anything else is a scheduler defect.  Every submission
        is awaited before the first defect propagates, so no task's
        exception goes unretrieved.
        """
        from repro.errors import ReproError

        self._start()
        watchdog_task = None
        if self.watchdog_seconds is not None:
            watchdog_task = asyncio.ensure_future(self._global_watchdog())
        try:
            ordered = sorted(arrivals, key=lambda pair: pair[0])
            submissions: list[tuple[JobSpec, asyncio.Task[JobResult]]] = []
            for at, spec in ordered:
                if at > self.clock.now:
                    await self.clock.sleep(at - self.clock.now)
                submissions.append(
                    (spec, asyncio.ensure_future(self.submit(spec)))
                )
            outcomes: list[JobOutcome] = []
            defect: Exception | None = None
            for spec, task in submissions:
                try:
                    outcomes.append(JobOutcome(spec=spec,
                                               result=await task))
                except ReproError as err:
                    outcomes.append(JobOutcome(spec=spec, error=err))
                except Exception as err:
                    if defect is None:
                        defect = err
            if defect is not None:
                raise defect
            return outcomes
        finally:
            if watchdog_task is not None:
                watchdog_task.cancel()
                try:
                    await watchdog_task
                except asyncio.CancelledError:
                    pass
            await self._shutdown()

    def serve_sync(self, arrivals: list[tuple[float, JobSpec]],
                   ) -> list[JobOutcome]:
        """:meth:`serve` under :func:`~repro.serve.clock.run_virtual`."""
        return run_virtual(self.clock, self.serve(arrivals))

    async def _global_watchdog(self) -> None:
        """Hard bound on the whole run's modelled duration."""
        assert self.watchdog_seconds is not None
        await self.clock.sleep(self.watchdog_seconds)
        for record in self._records.values():
            if not record.future.done():
                self._fail(record, WatchdogTimeout(
                    f"job {record.spec.job_id}: serve watchdog fired at "
                    f"t={self.clock.now:.6f} "
                    f"(budget {self.watchdog_seconds})"
                ))

    # -- reporting ----------------------------------------------------------

    def completed_results(self) -> list[JobResult]:
        return list(self._results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "fleet": self.fleet.to_dict(),
            "admission": self.admission.to_dict(),
            "cache": self.cache.to_dict(),
            "queued": self._queued,
            "backlog_seconds": self._backlog_seconds,
        }
