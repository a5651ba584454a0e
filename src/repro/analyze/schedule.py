"""Static schedule analyzer: start cycles, prime latency, period, totals.

Start cycles come from :func:`repro.analyze.interp.start_cycles`, a
longest-path DP over the DAG (it equals the interpreter's observed
first-fire cycles wherever every stage emits on its first firing,
property-tested).  The prime latency is the latest start cycle (the
first result's path to the drain stage) and the ideal period the
largest stage II.

The total is the bounded abstract run's proved count, which the engine
reproduces byte for byte.  No closed form stands beside it: a stage
that emits other than one item per firing (a shift buffer's column-top
pair) moves the total off any unit-rate formula without a single stall,
so ``stall_free`` is read from the run itself, not from a gap between
two totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dataflow.graph import DataflowGraph
from repro.analyze.interp import InterpRun, PeriodProof, start_cycles

__all__ = ["StageTiming", "StaticSchedule", "build_schedule"]


@dataclass(frozen=True)
class StageTiming:
    """Static timing facts for one stage."""

    name: str
    level: int
    start_cycle: int
    ii: int
    latency: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "level": self.level,
            "start_cycle": self.start_cycle,
            "ii": self.ii,
            "latency": self.latency,
        }


@dataclass(frozen=True)
class StaticSchedule:
    """Derived schedule of a graph for a given token count.

    ``total_cycles`` is the proved total (bounded abstract run);
    ``stall_free`` says no producer of that run ever blocked on a full
    FIFO.
    """

    graph_name: str
    tokens: int
    prime_latency: int
    ideal_period: int
    total_cycles: int
    stall_free: bool
    period: PeriodProof | None = None
    stages: dict[str, StageTiming] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "tokens": self.tokens,
            "prime_latency": self.prime_latency,
            "ideal_period": self.ideal_period,
            "total_cycles": self.total_cycles,
            "stall_free": self.stall_free,
            "period": self.period.to_dict() if self.period else None,
            "stages": {name: self.stages[name].to_dict()
                       for name in sorted(self.stages)},
        }


def build_schedule(graph: DataflowGraph, bounded: InterpRun
                   ) -> StaticSchedule:
    """Assemble the schedule from the DP and one bounded run."""
    timing = start_cycles(graph)
    stages = {
        stage.name: StageTiming(
            name=stage.name,
            level=timing[stage.name][0],
            start_cycle=timing[stage.name][1],
            ii=stage.ii,
            latency=stage.latency,
        )
        for stage in graph.stages
    }
    return StaticSchedule(
        graph_name=graph.name,
        tokens=bounded.tokens,
        prime_latency=max((t[1] for t in timing.values()), default=0),
        ideal_period=max((stage.ii for stage in graph.stages), default=1),
        total_cycles=bounded.cycles,
        stall_free=all(n == 0 for n in bounded.stream_full_stalls.values()),
        period=bounded.period,
        stages=stages,
    )
