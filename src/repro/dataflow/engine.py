"""The cycle-driven simulation engine.

The engine ticks every stage once per clock cycle, in topological order
(producers before consumers, so a value can traverse at most one stage per
cycle *boundary* while each stage still enforces its own pipeline latency).
It terminates when the whole machine is quiescent — every source exhausted,
every pipeline drained, every stream empty — and reports cycle counts plus
stall breakdowns, the numbers the paper uses to argue a design achieves
II = 1.

Batched exact execution
-----------------------
With ``batched=True`` (the default) the engine compiles the graph
(:mod:`repro.dataflow.compiled`) and executes provably periodic windows
of whole steady-state periods as single batched steps.  Every library
stage's firing *counts* depend only on control state (pipeline fill, II
timer, shift-buffer position), never on data values, so the engine
fingerprints the complete control state
(:meth:`~repro.dataflow.stage.Stage.ff_signature` per stage plus every
stream occupancy).  When the same fingerprint recurs ``P`` cycles later
the machine is provably periodic — a deterministic system revisiting a
state replays it exactly — and ``N`` whole periods run in one step:

* counters (fires, retirements, stalls, pushes, pops) grow by ``N`` times
  their per-period delta, measured between the two matching cycles;
* data flows through the graph in bulk: each stage's
  :meth:`~repro.dataflow.stage.Stage.fire_bulk` processes its ``N × F``
  firings at once (vectorised where the stage supports it), and FIFO
  semantics pin the few items left in streams and stage pipelines when
  per-cycle ticking resumes;
* ``N`` is capped by every stage's remaining capacity
  (:meth:`~repro.dataflow.stage.Stage.ff_fire_capacity`) and by the
  event calendar: tracer sample cycles, fault freeze boundaries and
  previewed FIFO fault strikes bound each window and always run on the
  scalar path, so sampled and faulted runs accelerate too.

A stage signature summarises its control state per *regime*, the one
its emission schedule declares (:meth:`~repro.dataflow.stage.Stage.
regime` at its firing count: the shift buffer's prime planes recur
every feed, its steady planes every plane), and its capacity ends every
window where that regime ends, so the run reads the declaration the
proof reads.  A stage may also describe a shorter-period *inner* regime
nested inside its outer one, which only the engine reads
(:meth:`~repro.dataflow.stage.Stage.ff_inner_signature`: the shift
buffer's silent columns recur every feed, its emitting columns every
column).  The engine keeps one fingerprint table per level.  It looks
the outer key up first, then the inner key (the machine key with the
inner stage signatures swapped in), and on a miss records the cycle
under both.  Each scalar cycle builds every stage's signature once for
both keys (an inner signature reuses its stage's outer one, and only
stages that define an inner regime are asked for one) and hashes each
key once: the orbit lookup, the first-occurrence lookup and the insert
all reuse that hash.  An inner hit runs a window bounded by every
stage's :meth:`~repro.dataflow.stage.Stage.ff_inner_capacity`, so the
plane that proves the plane period batches its columns while the proof
is still running.  Inner keys leave out the plane, so a first occurrence
stores each inner-regime stage's inner capacity with it, and a hit
counts only when the period's fires fit that capacity: a period that
outgrew the first occurrence's regime crossed into another one.
After a window, or when a regime ends within one period, detection at
that level starts afresh: an inner window clears only the inner table,
since it moved every counter exactly as scalar ticking would and a
plane recurrence measured across it stays exact; an outer window clears
both.

Every committed window also leaves its period and per-period deltas
in an *orbit* table of its level, keyed by the signature that found
it, for the rest of the run.  Orbits are looked up before the
first-occurrence tables, and a hit plans and relays a window with no
re-proof: two positions with one key behave alike for the smaller of
their two capacities, so the final plane runs the column period the
proving plane proved.  Fault strikes and freeze-boundary crossings
clear the orbits with the other tables.

A :class:`ControlRecord` goes one step further across the runs of one
call.  Every stage of the library machines declares its static control
parameters (:meth:`~repro.dataflow.stage.Stage.ff_structure`); the
first successful run of a structure records its counter movement,
stream high-water marks, cycle count and final fingerprint, and a later
run of the same structure replays it as one relay from cycle 0 —
:func:`~repro.dataflow.compiled.execute_window` with every stage's
whole-run fires and every stream's whole-run traffic, from empty
pipelines to empty pipelines — then checks that the machine is
quiescent in the recorded control state.  Runs with an active fault
plan or an enabled tracer neither record nor replay.

A stage whose output counts could depend on data values returns
``None`` from ``ff_signature`` (the arbitrated multi-kernel read stage
does so the moment its arbiter has ever starved it), and the run
finishes on the scalar loop.  Results are bit-identical to
``batched=False`` scalar ticking — statistics, stream occupancies, sink
data, fault traces, and raised errors — with the batched/scalar split
reported on :attr:`RunStats.batched_windows` /
:attr:`RunStats.batched_cycles` (a replayed run is one window of every
cycle) and any fallback reason on
:attr:`RunStats.batch_fallback_reason`.

Every run ends with one call of each stage's
:meth:`~repro.dataflow.stage.Stage.finish`, on every exit path:
quiescence, a replay, or an error on its way out.  The kernels' write
stages evaluate there the runs of results they stored, so a scalar
cycle moves control and run bounds, never data, and a run's outputs are
complete when :meth:`DataflowEngine.run` returns, or hold what the
machine wrote when it raises.

``mode="fast"`` is a deprecated alias: it warns and runs
``mode="exact", batched=True``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.dataflow.compiled import (CompiledGraph, EventCalendar,
                                     compile_graph, execute_window,
                                     period_deltas, plan_window)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.dataflow.stream import Stream
from repro.errors import DataflowError, FaultError, WatchdogTimeout

if TYPE_CHECKING:  # imported lazily to keep dataflow import-cycle free
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["ControlRecord", "DataflowEngine", "RecordedRun", "RunStats",
           "default_stall_grace"]

#: Signature table cap: beyond this many distinct control states the run
#: is clearly not periodic at a useful scale; the table is cleared to
#: bound memory and detection re-arms from scratch.
_FF_TABLE_CAP = 65_536


def default_stall_grace(stages: Sequence[Stage]) -> int:
    """Silent cycles a machine of ``stages`` may spend before it counts
    as deadlocked: the largest II plus the largest latency, plus one.

    A machine can legitimately make no visible progress while it waits
    out an interval or fills a pipeline; anything longer without
    progress while non-idle is a deadlock (an undersized FIFO, say).
    The engine and the static analyzer both default to it.
    """
    return (max(stage.ii for stage in stages)
            + max(stage.latency for stage in stages) + 1)


class _Key:
    """A machine key that hashes once.

    A fingerprint holds every stage's pipeline, so hashing it costs
    microseconds, and a scalar cycle looks one key up in up to two
    tables and may insert it: the hash is taken at construction and
    every table reuses it.
    """

    __slots__ = ("key", "hash")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.hash = hash(key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and self.key == other.key


@dataclass
class RunStats:
    """Result of one engine run."""

    cycles: int
    #: stage name -> fires
    fires: dict[str, int] = field(default_factory=dict)
    #: stage name -> {"input": n, "output": n, "ii": n, "pipeline": n}
    stalls: dict[str, dict[str, int]] = field(default_factory=dict)
    #: stream name -> max occupancy observed
    stream_high_water: dict[str, int] = field(default_factory=dict)
    #: number of batched windows committed (``batched=True``)
    batched_windows: int = 0
    #: cycles executed inside those batched windows; the scalar-fallback
    #: remainder is ``cycles - batched_cycles``.
    batched_cycles: int = 0
    #: why batched exact execution was (partly) disabled mid-run: a
    #: tracer sampling every cycle, a corrupted word left in flight, or a
    #: data-dependent stage veto.  ``None`` when batching never had to
    #: fall back (including ``batched=False`` runs).
    batch_fallback_reason: str | None = None

    def throughput(self, stage: str) -> float:
        """Average results per cycle for one stage (1.0 == ideal II=1)."""
        if self.cycles <= 0:
            return 0.0
        return self.fires.get(stage, 0) / self.cycles

    def total_stalls(self, stage: str) -> int:
        return sum(self.stalls.get(stage, {}).values())

    @classmethod
    def merge(cls, runs: Iterable["RunStats"]) -> "RunStats":
        """Aggregate several runs (e.g. per-chunk stats) into one summary.

        Cycles, fires, stalls, and batching counters add up; stream
        high-water marks take the maximum, matching their meaning as a
        sizing bound.  Distinct ``batch_fallback_reason`` values are all
        kept (joined with ``"; "`` in first-seen order) — different chunks
        can fall back for different causes and each deserves to surface.
        A merged reason splits back into its parts, so merging merged
        stats equals one merge of every run.
        """
        merged = cls(cycles=0)
        reasons: list[str] = []
        for run in runs:
            merged.cycles += run.cycles
            for name, fires in run.fires.items():
                merged.fires[name] = merged.fires.get(name, 0) + fires
            for name, stalls in run.stalls.items():
                into = merged.stalls.setdefault(name, {})
                for kind, count in stalls.items():
                    into[kind] = into.get(kind, 0) + count
            for name, high in run.stream_high_water.items():
                merged.stream_high_water[name] = max(
                    merged.stream_high_water.get(name, 0), high)
            merged.batched_windows += run.batched_windows
            merged.batched_cycles += run.batched_cycles
            if run.batch_fallback_reason is not None:
                for reason in run.batch_fallback_reason.split("; "):
                    if reason not in reasons:
                        reasons.append(reason)
        merged.batch_fallback_reason = "; ".join(reasons) if reasons else None
        return merged

    def to_dict(self) -> dict:
        """JSON-ready dump (stable key order for golden snapshots)."""
        return {
            "cycles": self.cycles,
            "fires": {name: self.fires[name] for name in sorted(self.fires)},
            "stalls": {
                name: dict(self.stalls[name]) for name in sorted(self.stalls)
            },
            "stream_high_water": {
                name: self.stream_high_water[name]
                for name in sorted(self.stream_high_water)
            },
            "batched_windows": self.batched_windows,
            "batched_cycles": self.batched_cycles,
            "batch_fallback_reason": self.batch_fallback_reason,
        }

    def summary(self) -> str:
        """Human-readable multi-line run summary."""
        lines = [f"cycles: {self.cycles}"]
        if self.batched_windows:
            lines[0] += (
                f" ({self.batched_cycles} batched in "
                f"{self.batched_windows} windows, "
                f"{self.cycles - self.batched_cycles} scalar)"
            )
        if self.batch_fallback_reason is not None:
            lines.append(
                f"  batched fallback: {self.batch_fallback_reason}")
        for name in sorted(self.fires):
            stalls = self.stalls.get(name, {})
            lines.append(
                f"  {name}: fires={self.fires[name]} "
                f"throughput={self.throughput(name):.3f} "
                f"stalls(in={stalls.get('input', 0)}, out={stalls.get('output', 0)}, "
                f"ii={stalls.get('ii', 0)}, pipe={stalls.get('pipeline', 0)})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class RecordedRun:
    """One successful run, as a :class:`ControlRecord` keeps it."""

    #: cycles to quiescence.
    cycles: int
    #: counter movement over the run, as :func:`~repro.dataflow.compiled.
    #: period_deltas` rows: per stage ``(fires, retired, input_stalls,
    #: output_stalls, ii_waits, pipeline_full_stalls)``, per stream
    #: ``(pushes, pops, full_stalls, empty_stalls)``.
    counters: tuple[np.ndarray, np.ndarray]
    #: per stream, in graph order, the highest occupancy seen.
    high_water: tuple[int, ...]
    #: the control fingerprint at quiescence.
    fingerprint: tuple


class ControlRecord:
    """The first successful run of each graph structure within one call.

    A scope handle, not a cache: a caller that runs one machine several
    times (one chunk loop, one scenario's fields and batches) passes one
    record to every engine run, and drops it when the call returns.  An
    engine run whose graph has a structure in the record (see
    :meth:`~repro.dataflow.stage.Stage.ff_structure`) replays it as one
    bulk step instead of ticking it.  Results are byte-identical with or
    without a record; only the batched/scalar split of
    :class:`RunStats` moves.
    """

    def __init__(self) -> None:
        #: structure key -> the first successful run of that structure.
        self.runs: dict[Any, RecordedRun] = {}


class DataflowEngine:
    """Runs a :class:`DataflowGraph` to quiescence.

    Parameters
    ----------
    graph:
        The wired dataflow graph; :meth:`DataflowGraph.validate` is called
        before the first cycle.
    max_cycles:
        Hard cap to bound runaway simulations.
    mode:
        ``"exact"``, the only engine mode.  ``"fast"`` is a deprecated
        alias that emits a :class:`DeprecationWarning` and runs
        ``mode="exact", batched=True``.
    batched:
        Execute provably periodic event-free windows as batched steps via
        :mod:`repro.dataflow.compiled` (see module docstring).  On by
        default; ``batched=False`` is the escape hatch back to pure
        per-cycle scalar ticking.  Results are bit-identical either
        way — only wall-clock time and the ``batched_*`` counters
        change.
    watchdog:
        Optional cycle budget for the whole run.  Where ``max_cycles``
        models the simulator's own runaway guard, the watchdog models the
        *host's* patience: exceeding it raises
        :class:`~repro.errors.WatchdogTimeout` (a
        :class:`~repro.errors.FaultError`), which the checkpointed layers
        treat as a retriable fault.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  At run start the
        engine arms matching FIFO fault hooks and stage freeze windows;
        batched windows stop short of every freeze boundary and
        previewed FIFO strike, so faults always land on scalar cycles.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`.  When enabled, the
        run emits one activity span per stage (first to last progressing
        cycle, with fire/stall counts attached), prime/steady phase spans
        for stages exposing ``first_emit_cycle`` (the shift buffer),
        batched window spans, and a fallback marker — all on the engine's
        cycle clock.  With a ``sample_every`` stride ``N`` it also
        records, after every stage has ticked on each cycle ``c % N ==
        0``, a ``fifo_occupancy`` counter sample of every stream (track
        ``fifo``) and a ``stage_fires`` sample of every stage's
        cumulative fires (track ``engine``).  Sample cycles bound
        batched windows and tick scalar; a stride of 1 leaves nothing to
        batch.  A disabled tracer's stride is ignored.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricRegistry`.  At the
        end of the run the engine feeds ``engine_cycles``,
        ``stage_fires``/``stage_stalls`` counters, ``fifo_high_water``
        gauges and a ``stage_throughput`` histogram — a once-per-run
        cost, so an attached registry (enabled or not) leaves the tick
        loop untouched.
    record:
        Optional :class:`ControlRecord` shared by the runs of one call.
        A batched run with no active fault plan and no enabled tracer
        replays the record's run of the same structure
        when it holds one and ``max_cycles`` (and ``watchdog``) cover
        it, and otherwise records itself on success unless batching
        fell back.
    """

    def __init__(self, graph: DataflowGraph, *, max_cycles: int = 10_000_000,
                 stall_grace: int | None = None, mode: str = "exact",
                 batched: bool = True, watchdog: int | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 tracer: "Tracer | None" = None,
                 metrics: "MetricRegistry | None" = None,
                 record: ControlRecord | None = None) -> None:
        if max_cycles < 1:
            raise DataflowError(f"max_cycles must be >= 1, got {max_cycles}")
        if stall_grace is not None and stall_grace < 1:
            raise DataflowError(
                f"stall_grace must be >= 1, got {stall_grace}"
            )
        if mode == "fast":
            warnings.warn(
                "DataflowEngine(mode='fast') is deprecated; it runs "
                "mode='exact', batched=True",
                DeprecationWarning, stacklevel=2)
            mode, batched = "exact", True
        elif mode != "exact":
            raise DataflowError(
                f"mode must be 'exact' (or the deprecated alias 'fast'), "
                f"got {mode!r}"
            )
        if watchdog is not None and watchdog < 1:
            raise DataflowError(
                f"watchdog must be >= 1, got {watchdog}"
            )
        self.graph = graph
        self.max_cycles = max_cycles
        self.stall_grace = stall_grace
        self.mode = mode
        self.batched = batched
        self.watchdog = watchdog
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.metrics = metrics
        self.record = record

    def run(self) -> RunStats:
        """Simulate until quiescence and return run statistics.

        However the run ends (quiescence, a replay, or an error on its
        way out), every stage's :meth:`~repro.dataflow.stage.Stage.
        finish` runs before this returns or raises, so a write stage's
        outputs are complete.
        """
        self.graph.validate()
        compiled = compile_graph(self.graph)
        try:
            return self._simulate(compiled)
        finally:
            for stage in compiled.order:
                stage.finish()

    def _simulate(self, compiled: CompiledGraph) -> RunStats:
        """The run itself: ticks, windows or a replay, then the stats."""
        order = compiled.order
        streams = compiled.streams
        # The stages that may report an inner regime: only they are
        # asked for an inner signature each cycle.
        inner_stages = [
            (row, stage) for row, stage in enumerate(order)
            if type(stage).ff_inner_signature is not Stage.ff_inner_signature]
        # Arm the fault plan: FIFO word hooks and stage freeze windows.
        plan = self.fault_plan
        plan_active = plan is not None and plan.active
        freeze: dict[str, tuple[int, int | None]] = {}
        if plan is not None and plan_active:
            for stream in streams:
                hook = plan.stream_hook(stream.name)
                if hook is not None:
                    stream.fault_hook = hook
            for stage in order:
                window = plan.freeze_window(stage.name)
                if window is not None:
                    freeze[stage.name] = window
        # Stages gated by external resources (a starved memory arbiter)
        # may stall longer than the default grace — callers model that
        # via ``stall_grace``.
        grace = (self.stall_grace if self.stall_grace is not None
                 else default_stall_grace(order))
        # Activity tracking (stage name -> [first, last] progressing cycle)
        # and strided samples only run with an *enabled* tracer: the flag
        # is hoisted here so a compiled-in-but-disabled tracer costs
        # nothing inside the loop.
        tracer = self.tracer
        trace_on = tracer is not None and tracer.enabled
        sample_every = (tracer.sample_every
                        if tracer is not None and trace_on else None)
        # Batched windows are event-aware (repro.dataflow.compiled):
        # tracer samples and fault plans bound windows instead of vetoing
        # them; only an every-cycle stride leaves nothing to batch.
        batch_reason: str | None = None
        batched = self.batched
        calendar: EventCalendar | None = None
        if batched and sample_every == 1:
            batched = False
            batch_reason = ("tracer samples every cycle (sample_every=1): "
                            "no window can be skipped")
        if batched:
            calendar = EventCalendar(
                sample_every=sample_every,
                freeze=freeze,
                plan=plan if plan_active else None,
                hooked=[stream.name for stream in streams
                        if stream.fault_hook is not None],
            )
        cap = (self.max_cycles if self.watchdog is None
               else min(self.max_cycles, self.watchdog))
        # A run with nothing to observe per cycle may replay a
        # control-identical run of the record, or record itself.
        record = self.record
        structure = None
        if record is not None and batched and not plan_active \
                and not trace_on:
            structure = self._ff_structure(order, streams, grace)
        start_counters = None
        if structure is not None:
            assert record is not None
            recorded = record.runs.get(structure)
            if recorded is not None and recorded.cycles <= cap:
                return self._replay(compiled, recorded)
            if recorded is None:
                start_counters = self._ff_snapshot(order, streams)
        # First occurrences, per level: key -> (cycle, counter snapshot,
        # inner capacities).  Orbits, per level: key -> (period, stage
        # deltas, stream deltas) of every committed window.
        ff_table: dict[_Key, tuple[int, tuple[tuple, tuple], tuple]] = {}
        inner_table: dict[_Key, tuple[int, tuple[tuple, tuple], tuple]] = {}
        orbits: dict[_Key, tuple[int, np.ndarray, np.ndarray]] = {}
        inner_orbits: dict[_Key, tuple[int, np.ndarray, np.ndarray]] = {}
        batched_windows = 0
        batched_cycles = 0
        plan_trace_len = len(plan.trace) if plan is not None else 0
        boundaries = calendar.boundaries if calendar is not None else ()
        boundary_idx = 0
        activity: dict[str, list[int]] = {}
        veto_cycle: int | None = None

        cycle = 0
        last_progress = 0
        while cycle < cap:
            progressed = False
            if trace_on:
                for stage in order:
                    window = freeze.get(stage.name) if freeze else None
                    if window is not None and window[0] <= cycle and (
                            window[1] is None or cycle < window[1]):
                        continue  # frozen: the stage does nothing
                    if stage.tick(cycle):
                        progressed = True
                        slot = activity.get(stage.name)
                        if slot is None:
                            activity[stage.name] = [cycle, cycle]
                        else:
                            slot[1] = cycle
                if sample_every is not None and cycle % sample_every == 0:
                    assert tracer is not None
                    tracer.counter(
                        "fifo_occupancy", "fifo", float(cycle),
                        **{s.name: s.occupancy for s in streams})
                    tracer.counter(
                        "stage_fires", "engine", float(cycle),
                        **{s.name: s.stats.fires for s in order})
            elif not freeze:
                for stage in order:
                    progressed |= stage.tick(cycle)
            else:
                for stage in order:
                    window = freeze.get(stage.name)
                    if window is not None and window[0] <= cycle and (
                            window[1] is None or cycle < window[1]):
                        continue  # frozen: the stage does nothing
                    progressed |= stage.tick(cycle)
            if progressed:
                last_progress = cycle
            else:
                if self._quiescent():
                    cycle += 1
                    break
                if cycle - last_progress > grace:
                    raise DataflowError(
                        f"dataflow deadlock in graph {self.graph.name!r} at "
                        f"cycle {cycle}: no progress for {cycle - last_progress} "
                        f"cycles; stream states: "
                        + ", ".join(
                            f"{s.name}={s.occupancy}/{s.depth}"
                            for s in streams
                        )
                    )
            if batched and plan_active:
                # A fault struck on the scalar path this cycle.  A
                # corrupt strike leaves a CorruptedWord in flight, and
                # the bulk relay would consume it past the consumer-side
                # ECC check — scalar ticking for the rest of the run.
                # Any other strike (a dropped word) perturbs the
                # counters mid-measurement: a period measured across it
                # would replay polluted deltas (the producer's retire
                # rate includes the vanished word, the consumer's pop
                # rate does not), so recurrence detection restarts from
                # the post-strike state.
                assert plan is not None
                if len(plan.trace) != plan_trace_len:
                    for table in (ff_table, inner_table, orbits,
                                  inner_orbits):
                        table.clear()
                    for event in plan.trace[plan_trace_len:]:
                        if event.site == "fifo" and event.kind == "corrupt":
                            batched = False
                            batch_reason = (
                                f"corrupted word in flight on stream "
                                f"{event.name!r}: bulk relay would bypass "
                                f"the consumer-side ECC check"
                            )
                            veto_cycle = cycle
                            break
                    plan_trace_len = len(plan.trace)
            if batched and boundary_idx < len(boundaries) \
                    and boundaries[boundary_idx] <= cycle + 1:
                # Crossing a freeze boundary changes which stages tick:
                # periods measured across it are invalid.
                while boundary_idx < len(boundaries) \
                        and boundaries[boundary_idx] <= cycle + 1:
                    boundary_idx += 1
                for table in (ff_table, inner_table, orbits, inner_orbits):
                    table.clear()
            if batched:
                sig_cycle = cycle + 1
                sig, veto_stage = self._ff_machine_signature(
                    order, streams, sig_cycle)
                if sig is None:
                    # A stage vetoed (data-dependent control, e.g. a
                    # starved arbiter): scalar ticking for the rest of
                    # the run.
                    batch_reason = (
                        f"stage {veto_stage!r} vetoed steady-state "
                        f"detection (data-dependent control)"
                    )
                    batched = False
                    ff_table.clear()
                    inner_table.clear()
                    veto_cycle = cycle
                else:
                    inner_sig, inner_rows = self._ff_inner_signature(
                        inner_stages, sig, sig_cycle)
                    key = _Key(sig)
                    inner_key = (None if inner_sig is None
                                 else _Key(inner_sig))
                    # A period proved earlier in the run, wherever its
                    # key recurs; no re-proof.
                    skipped = 0
                    inner = False
                    orbit = orbits.get(key)
                    if orbit is None and inner_key is not None:
                        orbit = inner_orbits.get(inner_key)
                        inner = orbit is not None
                    if orbit is not None:
                        period, d_stage, d_stream = orbit
                        skipped = self._ff_window(
                            compiled, sig_cycle, period, d_stage, d_stream,
                            cap, calendar, inner)
                    if skipped <= 0:
                        hit = ff_table.get(key)
                        inner = False
                        if hit is None and inner_key is not None:
                            hit = inner_table.get(inner_key)
                            inner = hit is not None
                        if hit is not None:
                            first_cycle, snapshot, capacities = hit
                            d_stage, d_stream = period_deltas(
                                order, streams, snapshot)
                            # Inner keys omit the plane: a period that
                            # outgrew the first occurrence's inner
                            # regime crossed into another one.
                            if inner and any(
                                    d_stage[row, 0] > capacity
                                    for row, capacity in capacities):
                                hit = None
                        if hit is None:
                            if len(ff_table) >= _FF_TABLE_CAP:
                                ff_table.clear()
                                inner_table.clear()
                            entry = (sig_cycle,
                                     self._ff_snapshot(order, streams),
                                     tuple([
                                         (row, order[row].ff_inner_capacity(
                                             cap - sig_cycle))
                                         for row in inner_rows]))
                            ff_table[key] = entry
                            if inner_key is not None:
                                inner_table[inner_key] = entry
                            cycle += 1
                            continue
                        period = sig_cycle - first_cycle
                        skipped = self._ff_window(
                            compiled, sig_cycle, period, d_stage, d_stream,
                            cap, calendar, inner)
                        if skipped > 0:
                            if inner:
                                assert inner_key is not None
                                inner_orbits[inner_key] = (period, d_stage,
                                                           d_stream)
                            else:
                                orbits[key] = (period, d_stage, d_stream)
                    if skipped > 0:
                        batched_windows += 1
                        batched_cycles += skipped
                        if trace_on:
                            assert tracer is not None
                            tracer.add_span(
                                f"batched x{skipped}", "engine",
                                sig_cycle, sig_cycle + skipped,
                                category="batched",
                                period=period,
                                level="inner" if inner else "outer")
                            for stage, fires in zip(order, d_stage[:, 0]):
                                if not fires:
                                    continue  # idle through the window
                                slot = activity.get(stage.name)
                                if slot is None:
                                    activity[stage.name] = [sig_cycle,
                                                            cycle + skipped]
                                else:
                                    slot[1] = cycle + skipped
                        cycle += skipped
                        last_progress = cycle
                    if skipped:
                        # A window moved every counter, or (-1) a stage's
                        # supply or control regime ends within one period:
                        # the stored snapshots of that level are stale, so
                        # hunt afresh.  An inner window keeps the outer
                        # table: it moved every counter exactly as scalar
                        # ticking would, so a recurrence measured across
                        # it is still exact.  0 (a parked zero-fire
                        # period, or an event due within one period) keeps
                        # the detection state.
                        inner_table.clear()
                        if not inner:
                            ff_table.clear()
            cycle += 1
        else:
            if self.watchdog is not None and cap == self.watchdog:
                raise WatchdogTimeout(
                    f"graph {self.graph.name!r} exceeded its watchdog "
                    f"budget of {self.watchdog} cycles without quiescing"
                )
            raise DataflowError(
                f"graph {self.graph.name!r} did not quiesce within "
                f"{self.max_cycles} cycles"
            )

        if plan is not None and plan.active:
            # End-of-run accounting: a healthy quiescent stream has seen
            # every pushed word popped (or still holds it).  A shortfall
            # means an injected drop swallowed data that nothing checked
            # downstream — surface it as a typed error, never silently.
            for stream in streams:
                lost = (stream.stats.pushes - stream.stats.pops
                        - stream.occupancy)
                if lost > 0:
                    raise FaultError(
                        f"{lost} word(s) lost in flight on stream "
                        f"{stream.name!r} (push/pop accounting mismatch "
                        f"at quiescence)"
                    )

        if start_counters is not None and batch_reason is None:
            assert record is not None and structure is not None
            record.runs[structure] = RecordedRun(
                cycles=cycle,
                counters=period_deltas(order, streams, start_counters),
                high_water=tuple([s.stats.max_occupancy for s in streams]),
                fingerprint=self._ff_machine_signature(
                    order, streams, cycle)[0])
        stats = self._stats(order, streams, cycle, batched_windows,
                            batched_cycles, batch_reason)
        if trace_on:
            self._emit_spans(stats, order, activity, veto_cycle)
        if self.metrics is not None and self.metrics.enabled:
            self._emit_metrics(stats)
        return stats

    def _stats(self, order: list[Stage], streams: list[Stream], cycles: int,
               batched_windows: int, batched_cycles: int,
               batch_reason: str | None) -> RunStats:
        """The run's :class:`RunStats`, read off the stage and stream
        counters."""
        return RunStats(
            cycles=cycles,
            fires={s.name: s.stats.fires for s in order},
            stalls={
                s.name: {
                    "input": s.stats.input_stalls,
                    "output": s.stats.output_stalls,
                    "ii": s.stats.ii_waits,
                    "pipeline": s.stats.pipeline_full_stalls,
                }
                for s in order
            },
            stream_high_water={
                s.name: s.stats.max_occupancy for s in streams
            },
            batched_windows=batched_windows,
            batched_cycles=batched_cycles,
            batch_fallback_reason=batch_reason,
        )

    def _replay(self, compiled: CompiledGraph,
                recorded: "RecordedRun") -> RunStats:
        """Run the graph as one relay of a recorded control-identical run.

        Every stage fires its recorded count and every stream relays its
        recorded traffic, from cycle 0 to the recorded total, with empty
        pipelines at both ends.  The machine must then be quiescent in
        the recorded control state; anything else raises
        :class:`~repro.errors.DataflowError`.
        """
        order, streams = compiled.order, compiled.streams
        d_stage, d_stream = recorded.counters
        execute_window(order, streams, compiled.stream_index, 0,
                       recorded.cycles, 1, d_stage, d_stream)
        for stream, high in zip(streams, recorded.high_water):
            stream.stats.max_occupancy = max(stream.stats.max_occupancy, high)
        if not self._quiescent() or self._ff_machine_signature(
                order, streams, recorded.cycles)[0] != recorded.fingerprint:
            raise DataflowError(
                f"graph {self.graph.name!r}: a replayed run did not end in "
                f"the quiescent control state its record holds"
            )
        stats = self._stats(order, streams, recorded.cycles, 1,
                            recorded.cycles, None)
        if self.metrics is not None and self.metrics.enabled:
            self._emit_metrics(stats)
        return stats

    # -- observability (end-of-run, never in the tick loop) ---------------------

    def _emit_spans(self, stats: RunStats, order: list[Stage],
                    activity: dict[str, list[int]],
                    veto_cycle: int | None) -> None:
        """Emit the run's spans onto the attached (enabled) tracer."""
        tracer = self.tracer
        assert tracer is not None
        tracer.add_span(
            self.graph.name, "engine", 0, stats.cycles, category="run",
            cycles=stats.cycles,
            batched_windows=stats.batched_windows,
            batched_cycles=stats.batched_cycles)
        if stats.batch_fallback_reason is not None:
            tracer.instant("batched execution fell back", "engine",
                           ts=float(veto_cycle if veto_cycle is not None
                                    else 0),
                           reason=stats.batch_fallback_reason)
        for stage in order:
            window = activity.get(stage.name)
            if window is None:
                continue
            first, last = window[0], window[1] + 1
            stalls = stats.stalls[stage.name]
            tracer.add_span(
                "active", stage.name, first, last, category="stage",
                fires=stats.fires[stage.name],
                throughput=round(stats.throughput(stage.name), 4),
                **stalls)
            # Stages exposing first_emit_cycle (the shift buffer) split
            # into the paper's prime/steady phases: priming consumes
            # without producing, steady state emits every cycle.
            first_emit = getattr(stage, "first_emit_cycle", None)
            if first_emit is not None and first <= first_emit <= last:
                tracer.add_span("prime", stage.name, first, first_emit,
                                category="phase")
                tracer.add_span("steady", stage.name, first_emit, last,
                                category="phase")
        for stream in self.graph.streams:
            if stream.stats.max_occupancy:
                tracer.counter("fifo_high_water", "fifo",
                               float(stats.cycles),
                               **{stream.name: stream.stats.max_occupancy})

    def _emit_metrics(self, stats: RunStats) -> None:
        """Fold the run's statistics into the attached registry."""
        registry = self.metrics
        assert registry is not None
        registry.counter(
            "engine_cycles", "simulated cycles to quiescence",
        ).inc(stats.cycles)
        registry.counter(
            "engine_runs", "engine runs folded into this registry",
        ).inc()
        fires = registry.counter("stage_fires", "firings per stage")
        stalls = registry.counter(
            "stage_stalls", "stall cycles per stage and kind")
        throughput = registry.histogram(
            "stage_throughput", "per-run fires/cycle per stage")
        for name, count in stats.fires.items():
            fires.inc(count, stage=name)
            throughput.observe(stats.throughput(name), stage=name)
        for name, kinds in stats.stalls.items():
            for kind, count in kinds.items():
                stalls.inc(count, stage=name, kind=kind)
        high_water = registry.gauge(
            "fifo_high_water", "max FIFO occupancy per stream")
        for name, high in stats.stream_high_water.items():
            high_water.set_max(high, stream=name)
        if self.batched:
            registry.counter(
                "batched_windows", "batched exact windows committed",
            ).inc(stats.batched_windows)
            registry.counter(
                "scalar_fallback_cycles",
                "cycles ticked scalar outside batched windows",
            ).inc(stats.cycles - stats.batched_cycles)
            if stats.batch_fallback_reason is not None:
                registry.counter(
                    "batch_fallbacks",
                    "batched exact runs that fell back to scalar ticking",
                ).inc(reason=stats.batch_fallback_reason)

    # -- steady-state detection internals ---------------------------------------

    def _ff_window(self, compiled: CompiledGraph, sig_cycle: int,
                   period: int, d_stage: np.ndarray, d_stream: np.ndarray,
                   limit: int, calendar: EventCalendar | None,
                   inner: bool) -> int:
        """Plan and relay one window of whole periods from ``sig_cycle``.

        Returns the cycles skipped, or the :func:`~repro.dataflow.
        compiled.plan_window` verdict (``0`` defer, ``-1`` the capacity
        cannot cover one period) when no window runs.
        """
        n, push_rates = plan_window(
            compiled.order, compiled.stream_index, sig_cycle, period,
            d_stage, d_stream, limit, calendar, inner=inner)
        if n < 1:
            return n
        execute_window(compiled.order, compiled.streams,
                       compiled.stream_index, sig_cycle,
                       sig_cycle + n * period, n, d_stage, d_stream)
        if calendar is not None:
            calendar.commit(n, push_rates)
        return n * period

    def _ff_structure(self, order: list[Stage], streams: list[Stream],
                      grace: int) -> tuple | None:
        """The key a :class:`ControlRecord` files this run under, or
        ``None`` when some stage declares no structure."""
        stages = []
        for stage in order:
            structure = stage.ff_structure()
            if structure is None:
                return None
            stages.append((structure,
                           tuple([(port, s.name)
                                  for port, s in stage.inputs.items()]),
                           tuple([(port, s.name)
                                  for port, s in stage.outputs.items()])))
        return (tuple(stages),
                tuple([(s.name, s.depth) for s in streams]), grace)

    def _ff_machine_signature(self, order: list[Stage],
                              streams: list[Stream], at_cycle: int
                              ) -> tuple[tuple | None, str | None]:
        """``(fingerprint, None)``, or ``(None, stage_name)`` on a veto."""
        stage_sigs = []
        append = stage_sigs.append
        for stage in order:
            sig = stage.ff_signature(at_cycle)
            if sig is None:
                return None, stage.name
            append(sig)
        return (
            tuple(stage_sigs),
            tuple([stream.occupancy for stream in streams]),
        ), None

    def _ff_inner_signature(self, inner_stages: list[tuple[int, Stage]],
                            sig: tuple, at_cycle: int
                            ) -> tuple[tuple | None, list[int]]:
        """``sig`` with every inner stage signature swapped in (``None``
        when no stage is in an inner regime), and the rows of the stages
        that are.  ``inner_stages`` are the ``(row, stage)`` pairs that
        may report one; each reuses its outer signature from ``sig``."""
        stage_sigs = None
        rows = []
        outer = sig[0]
        for row, stage in inner_stages:
            inner = stage.ff_inner_signature(at_cycle, outer[row])
            if inner is not None:
                if stage_sigs is None:
                    stage_sigs = list(outer)
                stage_sigs[row] = inner
                rows.append(row)
        if stage_sigs is None:
            return None, rows
        return (tuple(stage_sigs), sig[1]), rows

    def _ff_snapshot(self, order: list[Stage], streams: list[Stream]
                     ) -> tuple[tuple, tuple]:
        """Counter snapshot paired with a signature's first occurrence.

        Flat tuples aligned with ``order`` / ``streams`` — built once per
        simulated cycle, so no dict overhead.
        """
        stage_counts = tuple([
            (s.stats.fires, s.stats.retired, s.stats.input_stalls,
             s.stats.output_stalls, s.stats.ii_waits,
             s.stats.pipeline_full_stalls)
            for s in order
        ])
        stream_counts = tuple([
            (st.stats.pushes, st.stats.pops, st.stats.full_stalls,
             st.stats.empty_stalls)
            for st in streams
        ])
        return (stage_counts, stream_counts)

    def _quiescent(self) -> bool:
        """True when nothing can ever happen again."""
        return all(stage.is_idle() for stage in self.graph.stages) and all(
            stream.is_empty for stream in self.graph.streams
        )
