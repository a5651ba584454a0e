"""Channel-occupancy and deadlock prover.

Two abstract runs of the same graph (:func:`repro.analyze.interp.interpret`)
prove everything this module claims:

* the **unbounded** run treats every FIFO as infinitely deep.  Its
  per-stream high-water mark is the minimal stall-free depth: give every
  FIFO at least that depth and, by induction over cycles, the bounded
  machine replays the unbounded trajectory decision for decision (no
  push ever fails), so no producer ever blocks.
* the **bounded** run uses the configured depths.  A stream stalls its
  producer iff its depth is below the minimal stall-free depth; the run's
  proved steady-state period (:class:`~repro.analyze.interp.PeriodProof`)
  then tells whether the stalls merely cost transient cycles or collapse
  the sustained rate below the graph's ideal period (``max`` stage II).

A structurally valid DAG of unit-rate stages can never hard-deadlock:
every dependency cycle closes through a FIFO's free slots or a stage
pipeline's slack, each carrying at least one token of marking (the
marked-graph liveness condition).  A multi-rate graph can: a firing
whose burst is larger than its FIFO's depth never retires.  The
stencil machine over a 4 x 4 x 3 interior does so at depths 1 and 2,
where each window yields three results; the proof's witnesses fall at
cycles 99 and 103, the cycles the engine raises at.  The prover
therefore returns either a constructive completion proof — the bounded
run quiesces — or, where the engine's no-progress guard trips, a
concrete :class:`~repro.analyze.interp.StallWitness` naming the burst
that does not fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dataflow.graph import DataflowGraph
from repro.analyze.interp import InterpRun, PeriodProof, StallWitness

__all__ = ["StreamProof", "OccupancyProof", "build_occupancy_proof",
           "OVERPROVISION_SLACK"]

#: Depth headroom above the minimal stall-free depth tolerated before a
#: FIFO is called overprovisioned (BRAM-backed FIFOs round up anyway).
OVERPROVISION_SLACK: int = 4


@dataclass(frozen=True)
class StreamProof:
    """Proved occupancy facts about one FIFO.

    ``min_safe`` is the minimal stall-free depth (the unbounded run's
    high-water mark); ``high_water`` and ``full_stalls`` come from the
    bounded run under the configured ``depth``.
    """

    name: str
    depth: int
    min_safe: int
    high_water: int
    full_stalls: int

    @property
    def verdict(self) -> str:
        if self.depth < self.min_safe:
            return "under"
        if self.depth == self.min_safe:
            return "exact"
        if self.depth <= self.min_safe + OVERPROVISION_SLACK:
            return "ok"
        return "over"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "depth": self.depth,
            "min_safe": self.min_safe,
            "high_water": self.high_water,
            "full_stalls": self.full_stalls,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class OccupancyProof:
    """The prover's verdict on a whole graph.

    ``safe`` means the bounded abstract run completed (constructive
    deadlock-freedom); ``stall_free`` that no producer ever blocked;
    ``throughput_collapsed`` that the proved steady-state period is worse
    than the graph's ideal period, i.e. the configured depths throttle
    the sustained rate, not just the transient.
    """

    graph_name: str
    tokens: int
    bounded_cycles: int
    unbounded_cycles: int
    ideal_period: int
    deadlock: StallWitness | None = None
    first_stall: StallWitness | None = None
    period: PeriodProof | None = None
    streams: dict[str, StreamProof] = field(default_factory=dict)

    @property
    def safe(self) -> bool:
        return self.deadlock is None

    @property
    def stall_free(self) -> bool:
        return all(s.full_stalls == 0 for s in self.streams.values())

    @property
    def overhead_cycles(self) -> int:
        """Cycles lost to under-depth FIFOs (bounded minus unbounded)."""
        return self.bounded_cycles - self.unbounded_cycles

    @property
    def throughput_collapsed(self) -> bool:
        if self.period is None or self.period.tokens_per_period == 0:
            return False
        return (self.period.cycles
                > self.ideal_period * self.period.tokens_per_period)

    @property
    def witness(self) -> StallWitness | None:
        """The strongest concrete witness available (deadlock first)."""
        return self.deadlock or self.first_stall

    def minimal_depths(self) -> dict[str, int]:
        """Minimal stall-free depth per stream (the ``--fix-depths`` map)."""
        return {name: max(1, proof.min_safe)
                for name, proof in sorted(self.streams.items())}

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "tokens": self.tokens,
            "safe": self.safe,
            "stall_free": self.stall_free,
            "throughput_collapsed": self.throughput_collapsed,
            "bounded_cycles": self.bounded_cycles,
            "unbounded_cycles": self.unbounded_cycles,
            "overhead_cycles": self.overhead_cycles,
            "ideal_period": self.ideal_period,
            "deadlock": self.deadlock.to_dict() if self.deadlock else None,
            "first_stall": (self.first_stall.to_dict()
                            if self.first_stall else None),
            "period": self.period.to_dict() if self.period else None,
            "streams": {name: self.streams[name].to_dict()
                        for name in sorted(self.streams)},
            "minimal_depths": self.minimal_depths(),
        }


def build_occupancy_proof(graph: DataflowGraph, bounded: InterpRun,
                          unbounded: InterpRun) -> OccupancyProof:
    """Assemble the proof object from one bounded + one unbounded run."""
    depths = {stream.name: stream.depth for stream in graph.streams}
    full_stalls = bounded.stream_full_stalls
    streams = {
        name: StreamProof(
            name=name,
            depth=depth,
            min_safe=max(1, unbounded.stream_high_water.get(name, 0)),
            high_water=bounded.stream_high_water.get(name, 0),
            full_stalls=full_stalls.get(name, 0),
        )
        for name, depth in depths.items()
    }
    return OccupancyProof(
        graph_name=graph.name,
        tokens=bounded.tokens,
        bounded_cycles=bounded.cycles,
        unbounded_cycles=unbounded.cycles,
        ideal_period=max((stage.ii for stage in graph.stages), default=1),
        deadlock=bounded.deadlock,
        first_stall=bounded.first_stall,
        period=bounded.period,
        streams=streams,
    )
