"""Abstract interpretation of a dataflow graph over its control plane.

The cycle engine (:mod:`repro.dataflow.engine`) simulates *data*: every
firing calls ``Stage.fire`` and items physically traverse the FIFOs.
For the graphs the paper builds, every firing count is fixed by the
stream position alone, never by a data value, so the *control*
trajectory (pipeline fill, II timers, FIFO occupancies) is determined
by the graph's structure.  This module executes exactly that
trajectory, token by token, without touching a single data value:

* every input-less stage is a **token source** firing ``tokens`` times;
* every other stage consumes one item per input port per firing, at
  most once per ``ii`` cycles;
* each firing's results retire ``latency`` cycles later, as many items
  per output port as the stage's declared emission schedule says for
  that firing (:meth:`~repro.dataflow.stage.Stage.emits`: one per port
  unless the stage declares otherwise, two bundles at a shift buffer's
  column top, up to three results per stencil window), and only when
  every destination FIFO has room for all of them;
* retire-then-fire ordering, stall attribution, deadlock grace, and the
  quiescence rule mirror the engine's semantics statement for
  statement, so the cycle counts agree **byte for byte** (asserted in
  the test suite against :class:`~repro.dataflow.engine.DataflowEngine`
  on the token twin, :mod:`repro.analyze.twin`, and on the kernels'
  own runs).

Periodicity makes this *static* rather than merely cheap: the
interpreter fingerprints its control state each cycle (every stage's II
wait, its in-flight results with their item counts, its schedule's
regime key, and every FIFO occupancy), and when a fingerprint recurs
``P`` cycles later the system is provably periodic (a deterministic
machine revisiting a state replays it exactly).  Whole periods are then
advanced analytically, never past the end of any stage's regime
(:meth:`~repro.dataflow.stage.Stage.regime_left`), so the cost is
O(transient + period + drain) per regime — independent of the token
count.  The same mechanism yields the steady-state period proof
consumed by :mod:`repro.analyze.schedule` and the worst-case occupancy
bound consumed by :mod:`repro.analyze.occupancy` (run with
``bounded=False`` the FIFOs are treated as infinite and the per-stream
high-water mark *is* the minimal stall-free depth).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.errors import AnalyzeError
from repro.lint.diagnostics import Severity

__all__ = ["StallWitness", "PeriodProof", "InterpRun", "interpret",
           "default_tokens", "start_cycles"]

#: Distinct control states kept for periodicity detection; mirrors the
#: engine's ``_FF_TABLE_CAP`` rationale (bound memory on aperiodic runs).
_TABLE_CAP: int = 65_536


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


class _StreamState:
    """Occupancy counter standing in for one FIFO (no data)."""

    __slots__ = ("name", "depth", "occupancy", "pushes", "pops",
                 "full_stalls", "empty_stalls", "high_water")

    def __init__(self, name: str, depth: int | None) -> None:
        self.name = name
        #: None models an unbounded FIFO (occupancy-bound analysis).
        self.depth = depth
        self.occupancy = 0
        self.pushes = 0
        self.pops = 0
        self.full_stalls = 0
        self.empty_stalls = 0
        self.high_water = 0

    def can_push(self, count: int) -> bool:
        return self.depth is None or self.occupancy + count <= self.depth

    def push(self, count: int) -> None:
        self.occupancy += count
        self.pushes += count
        if self.occupancy > self.high_water:
            self.high_water = self.occupancy


class _StageState:
    """Control state of one stage, firing on its declared schedule."""

    __slots__ = ("name", "stage", "ii", "latency", "is_source", "inputs",
                 "outputs", "pipeline", "next_fire", "remaining", "fires",
                 "retired", "input_stalls", "output_stalls", "ii_waits",
                 "pipeline_full_stalls", "first_fire")

    def __init__(self, stage: Stage, tokens: int,
                 streams: dict[str, _StreamState]) -> None:
        self.name = stage.name
        #: The stage itself, read only for its emission schedule.
        self.stage = stage
        self.ii = stage.ii
        self.latency = stage.latency
        self.is_source = not stage.input_ports
        self.inputs = [streams[stage.inputs[port].name]
                       for port in stage.input_ports]
        self.outputs = [streams[stage.outputs[port].name]
                        for port in stage.output_ports]
        #: In-flight results, oldest first: ``(ready cycle, items per
        #: output port)``.
        self.pipeline: deque[tuple[int, tuple[int, ...]]] = deque()
        self.next_fire = 0
        # An input-less stage with no outputs can never move a token; it
        # fires nothing (the engine's exhausted-and-portless guard).
        self.remaining = tokens if self.is_source and self.outputs else 0
        self.fires = 0
        self.retired = 0
        self.input_stalls = 0
        self.output_stalls = 0
        self.ii_waits = 0
        self.pipeline_full_stalls = 0
        self.first_fire: int | None = None

    def _fire(self, cycle: int) -> None:
        counts = self.stage.emits(self.fires)
        self.fires += 1
        if self.first_fire is None:
            self.first_fire = cycle
        self.next_fire = cycle + self.ii
        if any(counts):
            # A firing that produces nothing never enters the pipeline
            # (Stage._try_fire's `if produced:`): sinks, priming feeds.
            self.pipeline.append((cycle + self.latency, counts))

    def _blocking(self, counts: tuple[int, ...]
                  ) -> tuple[_StreamState, int] | None:
        """The first output stream without room for its items, and how
        many they are."""
        for stream, count in zip(self.outputs, counts):
            if count and not stream.can_push(count):
                return stream, count
        return None

    # Mirrors Stage._retire + Stage._try_fire (and the SourceStage /
    # ConstStage fire override): same check order, same stall attribution,
    # so cycle counts and stall counters agree with the engine exactly.
    def tick(self, cycle: int) -> bool:
        progressed = False
        pipe = self.pipeline
        if pipe and pipe[0][0] <= cycle:
            counts = pipe[0][1]
            blocked = self._blocking(counts)
            if blocked is not None:
                blocked[0].full_stalls += 1
                self.output_stalls += 1
            else:
                for stream, count in zip(self.outputs, counts):
                    if count:
                        stream.push(count)
                pipe.popleft()
                self.retired += 1
                progressed = True
        if cycle < self.next_fire:
            self.ii_waits += 1
        elif len(pipe) >= self.latency:
            self.pipeline_full_stalls += 1
        elif self.is_source:
            if self.remaining > 0:
                self.remaining -= 1
                self._fire(cycle)
                progressed = True
        else:
            empty = None
            for stream in self.inputs:
                if stream.occupancy < 1:
                    empty = stream
                    break
            if empty is not None:
                empty.empty_stalls += 1
                self.input_stalls += 1
            else:
                for stream in self.inputs:
                    stream.occupancy -= 1
                    stream.pops += 1
                self._fire(cycle)
                progressed = True
        return progressed

    def blocked_reason(self, cycle: int) -> str | None:
        """Why this stage makes no progress at ``cycle`` (None: idle)."""
        pipe = self.pipeline
        blocked = (self._blocking(pipe[0][1])
                   if pipe and pipe[0][0] <= cycle else None)
        if blocked is not None:
            full, count = blocked
            return (f"cannot retire {count} item{'s' if count > 1 else ''}"
                    f": stream {full.name!r} holds "
                    f"{full.occupancy}/{full.depth}")
        if cycle < self.next_fire:
            return None
        if pipe and len(pipe) >= self.latency:
            return "pipeline full behind a blocked exit"
        if self.is_source:
            return None
        for stream in self.inputs:
            if stream.occupancy < 1:
                return f"starved: stream {stream.name!r} empty"
        return None

    def signature(self, at_cycle: int) -> tuple[Any, ...]:
        """Clamped-offset control fingerprint (Stage.ff_signature's twin),
        with the schedule's regime key at the next firing."""
        wait = self.next_fire - at_cycle
        sig: tuple[Any, ...] = (
            wait if wait > 0 else 0,
            tuple((ready - at_cycle if ready > at_cycle else 0, counts)
                  for ready, counts in self.pipeline),
            self.stage.regime(self.fires),
        )
        if self.is_source:
            sig += (self.remaining > 0,)
        return sig

    def counters(self) -> tuple[int, int, int, int, int, int]:
        return (self.fires, self.retired, self.input_stalls,
                self.output_stalls, self.ii_waits, self.pipeline_full_stalls)


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
              bounded: bool = True, accelerate: bool = True,
              stall_grace: int | None = None,
              max_cycles: int = 10_000_000) -> InterpRun:
    """Abstract-interpret ``graph`` feeding ``tokens`` items per source.

    Parameters
    ----------
    graph:
        Any structurally valid :class:`DataflowGraph`; only names, port
        order, ``ii``, ``latency``, the stages' emission schedules and
        stream depths are read — the graph is never mutated and its
        stages are never fired.
    tokens:
        Items each source emits (default: :func:`default_tokens`).
    bounded:
        When False every FIFO is treated as infinitely deep; the
        per-stream high-water marks of that run are the minimal
        stall-free depths (no deadlock is possible).
    accelerate:
        Periodicity acceleration (identical results either way; the
        exact-vs-accelerated equivalence is property-tested).
    stall_grace:
        Silent cycles tolerated before declaring deadlock, mirroring
        ``DataflowEngine(stall_grace=...)``; the default is the engine's
        (``max ii + max latency + 1``).
    """
    _structural_guard(graph)
    if tokens is None:
        tokens = default_tokens(graph)
    if tokens < 0:
        raise AnalyzeError(f"tokens must be >= 0, got {tokens}")
    order = graph.topological_order()
    streams = {
        stream.name: _StreamState(stream.name,
                                  stream.depth if bounded else None)
        for stream in graph.streams
    }
    states = [_StageState(stage, tokens, streams) for stage in order]
    stream_list = list(streams.values())
    sources = [st for st in states if st.is_source]
    if stall_grace is not None:
        grace = stall_grace
    else:
        grace = (max(st.ii for st in states)
                 + max(st.latency for st in states) + 1)

    seen: dict[tuple[Any, ...], tuple[int, tuple[Any, ...]]] = {}
    period_proof: PeriodProof | None = None
    longest = 0
    advances = 0
    advanced_cycles = 0
    deadlock: StallWitness | None = None
    first_stall: StallWitness | None = None
    full_stalls_seen = 0

    def quiescent() -> bool:
        return (all(not st.pipeline for st in states)
                and all(s.occupancy == 0 for s in stream_list)
                and all(st.remaining <= 0 for st in sources))

    def machine_signature(at_cycle: int) -> tuple[Any, ...]:
        return (tuple(st.signature(at_cycle) for st in states),
                tuple(s.occupancy for s in stream_list))

    def snapshot() -> tuple[Any, ...]:
        return (tuple(st.counters() for st in states),
                tuple((s.pushes, s.pops, s.full_stalls, s.empty_stalls)
                      for s in stream_list))

    def advance(sig_cycle: int, period: int,
                snap: tuple[Any, ...]) -> int:
        """Jump whole periods; returns skipped cycles (0: parked phase,
        -1: a source's supply or a stage's regime ends within one
        period)."""
        nonlocal period_proof, longest
        snap_stages, snap_streams = snap
        d_stage = [
            tuple(now - then for now, then in zip(st.counters(), before))
            for st, before in zip(states, snap_stages)
        ]
        if sum(d[0] for d in d_stage) == 0:
            return 0
        n = (max_cycles - sig_cycle - 1) // period
        for st, d in zip(states, d_stage):
            if not d[0]:
                continue
            if st.is_source:
                n = min(n, st.remaining // d[0])
            left = st.stage.regime_left(st.fires)
            if left is not None:
                n = min(n, left // d[0])
        if n < 1:
            return -1
        shift = n * period
        for st, d in zip(states, d_stage):
            st.fires += d[0] * n
            st.retired += d[1] * n
            st.input_stalls += d[2] * n
            st.output_stalls += d[3] * n
            st.ii_waits += d[4] * n
            st.pipeline_full_stalls += d[5] * n
            st.next_fire += shift
            if st.pipeline:
                st.pipeline = deque((ready + shift, counts)
                                    for ready, counts in st.pipeline)
            if st.is_source:
                st.remaining -= d[0] * n
        for s, before in zip(stream_list, snap_streams):
            s.pushes += (s.pushes - before[0]) * n
            s.pops += (s.pops - before[1]) * n
            s.full_stalls += (s.full_stalls - before[2]) * n
            s.empty_stalls += (s.empty_stalls - before[3]) * n
        if shift > longest:
            # The steady state is the regime the run spends longest in
            # (a shift buffer primes before its planes recur).
            longest = shift
            period_proof = PeriodProof(
                start_cycle=sig_cycle - period, cycles=period,
                fires={st.name: d[0] for st, d in zip(states, d_stage)})
        return shift

    cycle = 0
    last_progress = 0
    while cycle < max_cycles:
        progressed = False
        for st in states:
            progressed |= st.tick(cycle)
        if progressed:
            last_progress = cycle
        else:
            if quiescent():
                cycle += 1
                break
            if cycle - last_progress > grace:
                blocked = {}
                for st in states:
                    reason = st.blocked_reason(cycle)
                    if reason is not None:
                        blocked[st.name] = reason
                deadlock = StallWitness(
                    kind="deadlock", cycle=cycle,
                    stuck_since=last_progress + 1,
                    streams={s.name: (s.occupancy, s.depth or 0)
                             for s in stream_list},
                    blocked=blocked,
                )
                break
        if first_stall is None:
            total_full = sum(s.full_stalls for s in stream_list)
            if total_full > full_stalls_seen:
                full_stalls_seen = total_full
                blocked = {
                    st.name: reason for st in states
                    if (reason := st.blocked_reason(cycle)) is not None
                    and "cannot retire" in reason
                }
                if blocked:
                    first_stall = StallWitness(
                        kind="backpressure", cycle=cycle, stuck_since=cycle,
                        streams={s.name: (s.occupancy, s.depth or 0)
                                 for s in stream_list},
                        blocked=blocked,
                    )
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
            f"graph {graph.name!r} did not quiesce within {max_cycles} "
            f"abstract cycles"
        )

    return InterpRun(
        graph_name=graph.name,
        tokens=tokens,
        bounded=bounded,
        cycles=cycle,
        deadlock=deadlock,
        fires={st.name: st.fires for st in states},
        stalls={
            st.name: {
                "input": st.input_stalls,
                "output": st.output_stalls,
                "ii": st.ii_waits,
                "pipeline": st.pipeline_full_stalls,
            }
            for st in states
        },
        stream_high_water={s.name: s.high_water for s in stream_list},
        stream_full_stalls={s.name: s.full_stalls for s in stream_list},
        first_fire={st.name: st.first_fire for st in states},
        period=period_proof,
        first_stall=first_stall,
        advances=advances,
        advanced_cycles=advanced_cycles,
    )
