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
  event calendar: monitor sample cycles, fault freeze boundaries and
  previewed FIFO fault strikes bound each window and always run on the
  scalar path, so monitored and faulted runs accelerate too.

On unit-rate graphs the static occupancy prover supplies the period
(``compiled.period_hint``), so the engine probes at that horizon instead
of hunting for a recurrence; a wrong hint only costs speed.  A stage
whose output counts could depend on data values returns ``None`` from
``ff_signature`` (the arbitrated multi-kernel read stage does so the
moment its arbiter has ever starved it), and the run finishes on the
scalar loop.  Results are bit-identical to ``batched=False`` scalar
ticking — statistics, stream occupancies, sink data, fault traces, and
raised errors — with the batched/scalar split reported on
:attr:`RunStats.batched_windows` / :attr:`RunStats.batched_cycles` and
any fallback reason on :attr:`RunStats.batch_fallback_reason`.

``mode="fast"`` is a deprecated alias: it warns and runs
``mode="exact", batched=True``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.dataflow.compiled import (EventCalendar, compile_graph,
                                     execute_window)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.monitors import Monitor
from repro.dataflow.stage import Stage
from repro.errors import DataflowError, FaultError, LintError, WatchdogTimeout

if TYPE_CHECKING:  # imported lazily to keep dataflow import-cycle free
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["DataflowEngine", "RunStats"]

#: Signature table cap: beyond this many distinct control states the run
#: is clearly not periodic at a useful scale; the table is cleared to
#: bound memory and detection re-arms from scratch.
_FF_TABLE_CAP = 65_536

#: Consecutive probe misses before a *learned* period is dropped and
#: table detection resumes (a statically proven period is never dropped —
#: a wrong one only costs speed).
_LEARNED_MISS_CAP = 8


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
    #: why batched exact execution was (partly) disabled mid-run: an
    #: every-cycle monitor, a corrupted word left in flight, or a
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
            if run.batch_fallback_reason is not None \
                    and run.batch_fallback_reason not in reasons:
                reasons.append(run.batch_fallback_reason)
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


class DataflowEngine:
    """Runs a :class:`DataflowGraph` to quiescence.

    Parameters
    ----------
    graph:
        The wired dataflow graph; :meth:`DataflowGraph.validate` is called
        before the first cycle.
    max_cycles:
        Hard cap to bound runaway simulations.
    monitors:
        Optional probes sampled once per cycle (honouring each monitor's
        ``sample_every``/``sample_phase`` stride, when present).
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
    lint:
        When True, run the full graph-family lint pass
        (:func:`repro.lint.lint_graph`) before the first cycle and raise
        :class:`~repro.errors.LintError` on any error diagnostic — the
        synthesis-time pre-flight the HLS tools would perform.  Off by
        default: :meth:`DataflowGraph.validate` already covers the hard
        structural errors, and tests deliberately run odd graphs.
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
        cycle clock.  Unlike monitors, a tracer never bounds a window: it
        records phase boundaries and aggregates that batched windows
        preserve exactly, never per-cycle samples.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricRegistry`.  At the
        end of the run the engine feeds ``engine_cycles``,
        ``stage_fires``/``stage_stalls`` counters, ``fifo_high_water``
        gauges and a ``stage_throughput`` histogram — a once-per-run
        cost, so an attached registry (enabled or not) leaves the tick
        loop untouched.
    """

    def __init__(self, graph: DataflowGraph, *, max_cycles: int = 10_000_000,
                 monitors: list[Monitor] | None = None,
                 stall_grace: int | None = None, mode: str = "exact",
                 batched: bool = True,
                 lint: bool = False, watchdog: int | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 tracer: "Tracer | None" = None,
                 metrics: "MetricRegistry | None" = None) -> None:
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
        self.monitors = list(monitors or [])
        self.stall_grace = stall_grace
        self.mode = mode
        self.batched = batched
        self.lint = lint
        self.watchdog = watchdog
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.metrics = metrics

    def run(self) -> RunStats:
        """Simulate until quiescence and return run statistics."""
        if self.lint:
            from repro.lint import lint_graph

            report = lint_graph(self.graph)
            if not report.ok:
                raise LintError(
                    f"lint pre-flight failed for graph "
                    f"{self.graph.name!r}:\n{report.render_text()}"
                )
        self.graph.validate()
        order = self.graph.topological_order()
        # Arm the fault plan: FIFO word hooks and stage freeze windows.
        plan = self.fault_plan
        plan_active = plan is not None and plan.active
        freeze: dict[str, tuple[int, int | None]] = {}
        if plan is not None and plan_active:
            for stream in self.graph.streams:
                hook = plan.stream_hook(stream.name)
                if hook is not None:
                    stream.fault_hook = hook
            for stage in order:
                window = plan.freeze_window(stage.name)
                if window is not None:
                    freeze[stage.name] = window
        # A machine can legitimately make no visible progress for up to the
        # largest II (waiting out the interval); anything longer without
        # progress while non-idle is a deadlock (e.g. an undersized FIFO).
        # Stages gated by external resources (a starved memory arbiter)
        # may stall longer — callers model that via ``stall_grace``.
        grace = self.stall_grace if self.stall_grace is not None else (
            max(s.ii for s in order) + max(s.latency for s in order) + 1
        )
        # Monitors sampled on a stride skip the call entirely off-phase;
        # an empty monitor list skips the whole loop.
        monitor_plan = [
            (m, getattr(m, "sample_every", 1), getattr(m, "sample_phase", 0))
            for m in self.monitors
        ]
        # Batched windows are event-aware (repro.dataflow.compiled):
        # monitors and fault plans bound windows instead of vetoing them;
        # only an every-cycle monitor leaves nothing to batch.
        batch_reason: str | None = None
        batched = self.batched
        calendar: EventCalendar | None = None
        proven: int | None = None
        if batched:
            for monitor, every, _phase in monitor_plan:
                if every <= 1:
                    batched = False
                    batch_reason = (
                        f"monitor {type(monitor).__name__} samples every "
                        f"cycle: no window can be skipped"
                    )
                    break
        if batched:
            compiled = compile_graph(self.graph)
            calendar = EventCalendar(
                monitors=[(every, phase)
                          for _, every, phase in monitor_plan],
                freeze=freeze,
                plan=plan if plan_active else None,
                hooked=[stream.name for stream in self.graph.streams
                        if stream.fault_hook is not None],
            )
            # Statically proved steady-state horizon (unit-rate graphs
            # only): probe at that period instead of table hunting.
            proven = compiled.period_hint
        ff_table: dict[Any, tuple[int, tuple[dict, dict]]] = {}
        #: Armed probe under a known period: (signature, cycle, snapshot).
        probe: tuple[Any, int, tuple] | None = None
        #: Learned period: after the first table hit, probe at the
        #: committed period so windows re-open immediately after each
        #: scalar event cycle.  Dropped after repeated misses.
        learned: int | None = None
        probe_misses = 0
        batched_windows = 0
        batched_cycles = 0
        plan_trace_len = len(plan.trace) if plan is not None else 0
        boundaries = calendar.boundaries if calendar is not None else ()
        boundary_idx = 0
        streams = list(self.graph.streams)
        stream_index = {stream.name: i for i, stream in enumerate(streams)}
        cap = (self.max_cycles if self.watchdog is None
               else min(self.max_cycles, self.watchdog))
        # Activity tracking (stage name -> [first, last] progressing cycle)
        # only runs with an *enabled* tracer: the flag is hoisted here so a
        # compiled-in-but-disabled tracer costs nothing inside the loop.
        tracer = self.tracer
        trace_on = tracer is not None and tracer.enabled
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
            for monitor, every, phase in monitor_plan:
                if every <= 1 or cycle % every == phase:
                    monitor.sample(cycle, self.graph)
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
                            for s in self.graph.streams
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
                    ff_table.clear()
                    probe = None
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
                ff_table.clear()
                probe = None
            if batched:
                sig, veto_stage = self._ff_machine_signature(order, cycle + 1)
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
                    veto_cycle = cycle
                else:
                    hit: tuple[int, tuple] | None = None
                    horizon = proven if proven is not None else learned
                    if horizon is not None:
                        # Known period (statically proven or learned
                        # from a committed window): no table, one probe.
                        if probe is not None \
                                and (cycle + 1) - probe[1] == horizon:
                            if sig == probe[0]:
                                hit = (probe[1], probe[2])
                                probe_misses = 0
                            elif proven is None:
                                probe_misses += 1
                                if probe_misses >= _LEARNED_MISS_CAP:
                                    # The learned period went stale;
                                    # back to table detection.
                                    learned = None
                                    probe_misses = 0
                            probe = None  # re-armed below on a miss
                        if hit is None and probe is None \
                                and (proven is not None
                                     or learned is not None):
                            probe = (sig, cycle + 1, self._ff_snapshot(order))
                    elif sig in ff_table:
                        hit = ff_table[sig]
                    else:
                        if len(ff_table) >= _FF_TABLE_CAP:
                            ff_table.clear()
                        ff_table[sig] = (cycle + 1, self._ff_snapshot(order))
                    if hit is None:
                        cycle += 1
                        continue
                    first_cycle, snapshot = hit
                    period = (cycle + 1) - first_cycle
                    fires_before = ({s.name: s.stats.fires for s in order}
                                    if trace_on else None)
                    skipped = execute_window(
                        order, streams, stream_index, cycle + 1, period,
                        snapshot, cap, calendar)
                    if skipped > 0:
                        batched_windows += 1
                        batched_cycles += skipped
                        # Probe at the committed period from now on:
                        # windows re-open one period after each scalar
                        # event cycle instead of re-hunting.
                        learned = period
                        probe_misses = 0
                        if trace_on:
                            assert fires_before is not None
                            tracer.add_span(
                                f"batched x{skipped}", "engine",
                                cycle + 1, cycle + 1 + skipped,
                                category="batched",
                                period=period)
                            for stage in order:
                                if stage.stats.fires \
                                        <= fires_before[stage.name]:
                                    continue
                                slot = activity.get(stage.name)
                                if slot is None:
                                    activity[stage.name] = [cycle + 1,
                                                            cycle + skipped]
                                else:
                                    slot[1] = cycle + skipped
                        cycle += skipped
                        last_progress = cycle
                        # Counters moved: every stored snapshot is stale.
                        ff_table.clear()
                        probe = None
                    elif skipped < 0:
                        # No room for even one period (sources at their
                        # end): the remaining run is short; tick it.
                        batched = False
                        ff_table.clear()
                    # skipped == 0: a parked zero-fire period, or an
                    # event due within one period — detection state
                    # stays valid; tick the next cycle scalar.
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
            for stream in self.graph.streams:
                lost = (stream.stats.pushes - stream.stats.pops
                        - stream.occupancy)
                if lost > 0:
                    raise FaultError(
                        f"{lost} word(s) lost in flight on stream "
                        f"{stream.name!r} (push/pop accounting mismatch "
                        f"at quiescence)"
                    )

        stats = RunStats(
            cycles=cycle,
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
                s.name: s.stats.max_occupancy for s in self.graph.streams
            },
            batched_windows=batched_windows,
            batched_cycles=batched_cycles,
            batch_fallback_reason=batch_reason,
        )
        if trace_on:
            self._emit_spans(stats, order, activity, veto_cycle)
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
                               ts=float(stats.cycles),
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

    def _ff_machine_signature(self, order: list[Stage], at_cycle: int
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
            tuple([stream.occupancy for stream in self.graph.streams]),
        ), None

    def _ff_snapshot(self, order: list[Stage]) -> tuple[tuple, tuple]:
        """Counter snapshot paired with a signature's first occurrence.

        Flat tuples aligned with ``order`` / ``graph.streams`` — built
        once per simulated cycle, so no dict overhead.
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
            for st in self.graph.streams
        ])
        return (stage_counts, stream_counts)

    def _quiescent(self) -> bool:
        """True when nothing can ever happen again."""
        return all(stage.is_idle() for stage in self.graph.stages) and all(
            stream.is_empty for stream in self.graph.streams
        )
