"""Abstract interpretation of a dataflow graph over its control plane.

The cycle engine (:mod:`repro.dataflow.engine`) simulates *data*: every
firing calls ``Stage.fire`` and items physically traverse the FIFOs.
For the graphs the paper builds, every firing count is fixed by the
stream position alone, never by a data value, so the *control*
trajectory (pipeline fill, II timers, FIFO occupancies) is determined
by the graph's structure.  This module executes exactly that
trajectory on the graph's token twin (:mod:`repro.analyze.twin`), whose
stages move opaque tokens on each original stage's declared emission
schedule (:meth:`~repro.dataflow.stage.Stage.emits`): every input-less
stage is a **token source** firing ``tokens`` times, and every stage
fires, retires and stalls by the library's own
:meth:`~repro.dataflow.stage.Stage.tick`, in the engine's tick order,
under the engine's deadlock grace
(:func:`~repro.dataflow.engine.default_stall_grace`).  Fires, stalls,
pushes, pops and high-water marks are the twin's own
:class:`~repro.dataflow.stage.StageStats` and
:class:`~repro.dataflow.stream.StreamStats`.

What this module adds is the proof.  It records each stage's first
firing, and when the machine stops progressing it builds a
:class:`StallWitness` from each stage's
:meth:`~repro.dataflow.stage.Stage.blocked_reason`: at the deadlock
guard, and at the first cycle a producer blocks on a full FIFO.
Periodicity makes the run *static* rather than merely cheap: the
interpreter fingerprints the twin's control state each cycle (every
stage's :meth:`~repro.dataflow.stage.Stage.ff_signature`, which holds
its II wait, its pipeline key, its schedule's regime key and a
source's remaining supply, and every FIFO occupancy), and when a
fingerprint recurs ``P`` cycles later the system is provably periodic
(a deterministic machine revisiting a state replays it exactly).
Whole periods are then advanced analytically with
:meth:`~repro.dataflow.stage.Stage.ff_commit`, never past a source's
supply or the end of any stage's regime
(:meth:`~repro.dataflow.stage.Stage.regime_left`), so the cost is
O(transient + period + drain) per regime — independent of the token
count.  The same mechanism yields the steady-state period proof
consumed by :mod:`repro.analyze.schedule` and the worst-case occupancy
bound consumed by :mod:`repro.analyze.occupancy` (run with
``bounded=False`` the FIFOs are treated as infinite and the per-stream
high-water mark *is* the minimal stall-free depth).  The proof never
runs :class:`~repro.dataflow.engine.DataflowEngine`; ``repro analyze
--check`` runs the engine on the same twin and compares.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, cast

from repro.analyze.twin import TwinStage, build_token_twin
from repro.dataflow.engine import default_stall_grace
from repro.dataflow.graph import DataflowGraph
from repro.errors import AnalyzeError
from repro.lint.diagnostics import Severity

__all__ = ["StallWitness", "PeriodProof", "InterpRun", "interpret",
           "default_tokens", "start_cycles"]

#: Distinct control states kept for periodicity detection; mirrors the
#: engine's ``_FF_TABLE_CAP`` rationale (bound memory on aperiodic runs).
_TABLE_CAP: int = 65_536

#: Runaway guard: a proof that has not quiesced by this cycle raises.
_MAX_CYCLES: int = 10_000_000

#: The depth an unbounded run gives every FIFO: no push ever waits.
_UNBOUNDED: int = sys.maxsize

#: The twin's counters at one cycle: per stage (fires, retired, input,
#: output, II and pipeline stalls), per stream (pushes, pops, full and
#: empty stalls).
_Counters = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class StallWitness:
    """A concrete stuck configuration observed by the interpreter.

    ``kind`` is ``"deadlock"`` when the engine's no-progress guard would
    raise at ``cycle`` (``stuck_since`` is the first silent cycle), or
    ``"backpressure"`` for the first cycle a producer blocked on a full
    FIFO (``stuck_since == cycle``).  ``streams`` snapshots every FIFO as
    ``name -> (occupancy, depth)`` and ``blocked`` explains, per stage,
    why it cannot progress at that cycle.
    """

    kind: str
    cycle: int
    stuck_since: int
    streams: dict[str, tuple[int, int]] = field(default_factory=dict)
    blocked: dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"{self.kind} witness at cycle {self.cycle}"]
        if self.stuck_since != self.cycle:
            parts[0] += f" (stuck since cycle {self.stuck_since})"
        for name in sorted(self.blocked):
            parts.append(f"{name}: {self.blocked[name]}")
        return "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "stuck_since": self.stuck_since,
            "streams": {name: {"occupancy": occ, "depth": depth}
                        for name, (occ, depth) in sorted(self.streams.items())},
            "blocked": {name: self.blocked[name]
                        for name in sorted(self.blocked)},
        }


@dataclass(frozen=True)
class PeriodProof:
    """A proved steady-state recurrence of the control state.

    Between ``start_cycle`` and ``start_cycle + cycles`` the machine's
    complete control state repeated exactly; ``fires`` records each
    stage's firings per period.  Of a run's recurrences (one per
    regime it advanced through) this is the one it advanced furthest.
    """

    start_cycle: int
    cycles: int
    fires: dict[str, int] = field(default_factory=dict)

    @property
    def tokens_per_period(self) -> int:
        """Items the steady state moves per period (max stage rate)."""
        return max(self.fires.values(), default=0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "start_cycle": self.start_cycle,
            "cycles": self.cycles,
            "tokens_per_period": self.tokens_per_period,
            "fires": {name: self.fires[name] for name in sorted(self.fires)},
        }


@dataclass(frozen=True)
class InterpRun:
    """Result of one abstract interpretation of a graph."""

    graph_name: str
    tokens: int
    bounded: bool
    #: Total cycles to quiescence (or to the deadlock guard tripping).
    cycles: int
    deadlock: StallWitness | None
    fires: dict[str, int] = field(default_factory=dict)
    stalls: dict[str, dict[str, int]] = field(default_factory=dict)
    stream_high_water: dict[str, int] = field(default_factory=dict)
    #: Producer blocks per stream (full-FIFO stalls), bounded runs only.
    stream_full_stalls: dict[str, int] = field(default_factory=dict)
    #: First cycle each stage fired (None: never fired).
    first_fire: dict[str, int | None] = field(default_factory=dict)
    period: PeriodProof | None = None
    #: First observed configuration where a producer blocked on a full
    #: FIFO and the FIFO stayed full through the end of the cycle.
    first_stall: StallWitness | None = None
    advances: int = 0
    advanced_cycles: int = 0

    @property
    def safe(self) -> bool:
        return self.deadlock is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "tokens": self.tokens,
            "bounded": self.bounded,
            "cycles": self.cycles,
            "safe": self.safe,
            "deadlock": self.deadlock.to_dict() if self.deadlock else None,
            "fires": {name: self.fires[name] for name in sorted(self.fires)},
            "stalls": {name: dict(self.stalls[name])
                       for name in sorted(self.stalls)},
            "stream_high_water": {
                name: self.stream_high_water[name]
                for name in sorted(self.stream_high_water)
            },
            "stream_full_stalls": {
                name: self.stream_full_stalls[name]
                for name in sorted(self.stream_full_stalls)
            },
            "period": self.period.to_dict() if self.period else None,
            "first_stall": (self.first_stall.to_dict()
                            if self.first_stall else None),
        }


def start_cycles(graph: DataflowGraph) -> dict[str, tuple[int, int]]:
    """Latency-path first-fire cycle and topological level per stage.

    A longest-path DP over the DAG: a stage first fires the cycle its
    slowest predecessor's first result lands in the connecting FIFO, so
    ``start[s] = max over preds p of (start[p] + latency[p])``.  FIFOs
    start empty, so the first token never meets backpressure, and the DP
    is exact wherever every stage emits on its first firing.  A stage
    whose first firings emit nothing (a shift buffer priming its first
    planes) starts its consumers later than this path; the interpreter's
    ``first_fire`` is the observed cycle.  Returns ``name -> (level,
    start_cycle)``; sources sit at level 0, cycle 0.
    """
    order = graph.topological_order()
    level = {stage.name: 0 for stage in order}
    start = {stage.name: 0 for stage in order}
    preds: dict[str, list[tuple[str, int]]] = {}
    for conn in graph.connections():
        preds.setdefault(conn.dst.name, []).append(
            (conn.src.name, conn.src.latency))
    for stage in order:
        for src, latency in preds.get(stage.name, ()):
            level[stage.name] = max(level[stage.name], level[src] + 1)
            start[stage.name] = max(start[stage.name], start[src] + latency)
    return {name: (level[name], start[name]) for name in start}


def default_tokens(graph: DataflowGraph) -> int:
    """A token count that provably reaches (and drains) steady state.

    Enough tokens to fill the deepest latency chain (the latest
    :func:`start_cycles` start) and every FIFO twice over: the control
    state is then periodic long before the sources run dry, so the
    proved period and the per-stream high-water marks are independent
    of the exact value (any larger count yields the same proofs —
    asserted in the property tests).
    """
    prime = max((start for _level, start in start_cycles(graph).values()),
                default=0)
    depth_sum = sum(stream.depth for stream in graph.streams)
    return max(16, 2 * prime + 2 * depth_sum + 16)


def _structural_guard(graph: DataflowGraph) -> None:
    errors = [d for d in graph.structural_diagnostics()
              if d.severity is Severity.ERROR]
    if errors:
        raise AnalyzeError(
            f"graph {graph.name!r} is not analyzable: "
            + "; ".join(f"{d.code} {d.message}" for d in errors)
        )


def interpret(graph: DataflowGraph, tokens: int | None = None, *,
              bounded: bool = True, accelerate: bool = True) -> InterpRun:
    """Abstract-interpret ``graph`` feeding ``tokens`` items per source.

    Parameters
    ----------
    graph:
        Any structurally valid :class:`DataflowGraph`; only names, port
        order, ``ii``, ``latency``, the stages' emission schedules and
        stream depths are read — the graph is never mutated and its
        stages are never fired (its token twin's are).
    tokens:
        Items each source emits (default: :func:`default_tokens`).
    bounded:
        When False every FIFO is treated as infinitely deep; the
        per-stream high-water marks of that run are the minimal
        stall-free depths (no deadlock is possible).
    accelerate:
        Periodicity acceleration (identical results either way; the
        exact-vs-accelerated equivalence is property-tested).
    """
    _structural_guard(graph)
    if tokens is None:
        tokens = default_tokens(graph)
    if tokens < 0:
        raise AnalyzeError(f"tokens must be >= 0, got {tokens}")
    twin = build_token_twin(graph, tokens)
    stages = cast(list[TwinStage], twin.topological_order())
    streams = twin.streams
    if not bounded:
        for stream in streams:
            stream.depth = _UNBOUNDED
    stage_stats = [stage.stats for stage in stages]
    stream_stats = [stream.stats for stream in streams]
    grace = default_stall_grace(stages)

    seen: dict[tuple[Any, ...], tuple[int, _Counters]] = {}
    period_proof: PeriodProof | None = None
    longest = 0
    advances = 0
    advanced_cycles = 0
    deadlock: StallWitness | None = None
    first_stall: StallWitness | None = None
    full_stalls_seen = 0
    first_fire: dict[str, int | None] = {stage.name: None
                                         for stage in stages}
    unfired = list(stages)

    def quiescent() -> bool:
        return (all(stage.is_idle() for stage in stages)
                and all(stream.is_empty for stream in streams))

    def witness(kind: str, cycle: int, stuck_since: int,
                blocked: dict[str, str]) -> StallWitness:
        # An unbounded FIFO snapshots with depth 0.
        return StallWitness(
            kind=kind, cycle=cycle, stuck_since=stuck_since,
            streams={s.name: (s.occupancy, s.depth if bounded else 0)
                     for s in streams},
            blocked=blocked)

    def blocked_at(cycle: int) -> dict[str, str]:
        return {stage.name: reason for stage in stages
                if (reason := stage.blocked_reason(cycle)) is not None}

    def machine_signature(at_cycle: int) -> tuple[Any, ...]:
        return (tuple([stage.ff_signature(at_cycle) for stage in stages]),
                tuple([len(stream) for stream in streams]))

    def snapshot() -> _Counters:
        return (tuple([(st.fires, st.retired, st.input_stalls,
                        st.output_stalls, st.ii_waits,
                        st.pipeline_full_stalls) for st in stage_stats]),
                tuple([(st.pushes, st.pops, st.full_stalls, st.empty_stalls)
                       for st in stream_stats]))

    def advance(sig_cycle: int, period: int, snap: _Counters) -> int:
        """Jump whole periods; returns skipped cycles (0: parked phase,
        -1: a source's supply or a stage's regime ends within one
        period)."""
        nonlocal period_proof, longest
        now_stages, now_streams = snapshot()
        d_stage = [tuple([now - then for now, then in zip(after, before)])
                   for after, before in zip(now_stages, snap[0])]
        if not any(d[0] for d in d_stage):
            return 0
        n = (_MAX_CYCLES - sig_cycle - 1) // period
        for stage, d in zip(stages, d_stage):
            if d[0]:
                n = min(n, stage.ff_fire_capacity(n * d[0]) // d[0])
        if n < 1:
            return -1
        shift = n * period
        for stage, st, d in zip(stages, stage_stats, d_stage):
            stage.skip(d[0] * n)
            stage.ff_commit(sig_cycle, sig_cycle + shift, fires=d[0] * n,
                            retired=d[1] * n,
                            tail_outputs=stage.ff_pipeline_entries())
            st.input_stalls += d[2] * n
            st.output_stalls += d[3] * n
            st.ii_waits += d[4] * n
            st.pipeline_full_stalls += d[5] * n
        for st, after, before in zip(stream_stats, now_streams, snap[1]):
            st.pushes += (after[0] - before[0]) * n
            st.pops += (after[1] - before[1]) * n
            st.full_stalls += (after[2] - before[2]) * n
            st.empty_stalls += (after[3] - before[3]) * n
        if shift > longest:
            # The steady state is the regime the run spends longest in
            # (a shift buffer primes before its planes recur).
            longest = shift
            period_proof = PeriodProof(
                start_cycle=sig_cycle - period, cycles=period,
                fires={stage.name: d[0]
                       for stage, d in zip(stages, d_stage)})
        return shift

    cycle = 0
    last_progress = 0
    while cycle < _MAX_CYCLES:
        progressed = False
        for stage in stages:
            progressed |= stage.tick(cycle)
        if progressed:
            last_progress = cycle
            if unfired:
                for stage in unfired:
                    if stage.stats.fires:
                        first_fire[stage.name] = cycle
                unfired = [stage for stage in unfired
                           if not stage.stats.fires]
        else:
            if quiescent():
                cycle += 1
                break
            if cycle - last_progress > grace:
                deadlock = witness("deadlock", cycle, last_progress + 1,
                                   blocked_at(cycle))
                break
        if first_stall is None:
            total_full = sum([st.full_stalls for st in stream_stats])
            if total_full > full_stalls_seen:
                full_stalls_seen = total_full
                blocked = {name: reason
                           for name, reason in blocked_at(cycle).items()
                           if reason.startswith("cannot retire")}
                if blocked:
                    first_stall = witness("backpressure", cycle, cycle,
                                          blocked)
        if accelerate:
            sig = machine_signature(cycle + 1)
            hit = seen.get(sig)
            if hit is None:
                if len(seen) >= _TABLE_CAP:
                    seen.clear()
                seen[sig] = (cycle + 1, snapshot())
            else:
                first_cycle, snap = hit
                skipped = advance(cycle + 1, (cycle + 1) - first_cycle, snap)
                if skipped > 0:
                    advances += 1
                    advanced_cycles += skipped
                    cycle += skipped
                    last_progress = cycle
                if skipped:
                    # After a jump, or where a supply or a regime ends
                    # within one period, the stored snapshots are stale:
                    # hunt afresh.  0 (a parked zero-fire period) keeps
                    # them.
                    seen.clear()
        cycle += 1
    else:
        raise AnalyzeError(
            f"graph {graph.name!r} did not quiesce within {_MAX_CYCLES} "
            f"abstract cycles"
        )

    return InterpRun(
        graph_name=graph.name,
        tokens=tokens,
        bounded=bounded,
        cycles=cycle,
        deadlock=deadlock,
        fires={stage.name: stage.stats.fires for stage in stages},
        stalls={
            stage.name: {
                "input": stage.stats.input_stalls,
                "output": stage.stats.output_stalls,
                "ii": stage.stats.ii_waits,
                "pipeline": stage.stats.pipeline_full_stalls,
            }
            for stage in stages
        },
        stream_high_water={s.name: s.stats.max_occupancy for s in streams},
        stream_full_stalls={s.name: s.stats.full_stalls for s in streams},
        first_fire=first_fire,
        period=period_proof,
        first_stall=first_stall,
        advances=advances,
        advanced_cycles=advanced_cycles,
    )
