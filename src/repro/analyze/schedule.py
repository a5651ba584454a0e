"""Static schedule analyzer: start cycles, prime latency, period, totals.

Start cycles come from :func:`repro.analyze.interp.start_cycles`, a
longest-path DP over the DAG that is exact, not a bound (it equals the
interpreter's observed first-fire cycles on every graph,
property-tested).

From there the closed form for a stall-free run is::

    total = prime_latency + (tokens - 1) * ideal_period + 2

where ``prime_latency`` is the latest start cycle (the drain stage's
first fire), ``ideal_period`` is the largest stage II, and the ``+2``
covers the engine's quiescence handshake (one silent cycle to observe no
progress, one to account the final cycle).  The proved total from the
bounded abstract run is authoritative: it equals the closed form exactly
when no FIFO ever fills, and exceeds it by the proved stall overhead
otherwise.
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
    ``analytic_total`` the stall-free closed form.  They agree exactly
    iff ``stall_free`` — the gap is the proved backpressure overhead.
    """

    graph_name: str
    tokens: int
    prime_latency: int
    ideal_period: int
    total_cycles: int
    analytic_total: int
    stall_free: bool
    period: PeriodProof | None = None
    stages: dict[str, StageTiming] = field(default_factory=dict)

    @property
    def stall_overhead(self) -> int:
        return self.total_cycles - self.analytic_total

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "tokens": self.tokens,
            "prime_latency": self.prime_latency,
            "ideal_period": self.ideal_period,
            "total_cycles": self.total_cycles,
            "analytic_total": self.analytic_total,
            "stall_free": self.stall_free,
            "stall_overhead": self.stall_overhead,
            "period": self.period.to_dict() if self.period else None,
            "stages": {name: self.stages[name].to_dict()
                       for name in sorted(self.stages)},
        }


def analytic_total_cycles(prime_latency: int, ideal_period: int,
                          tokens: int) -> int:
    """The stall-free closed form (1 for an empty run: the engine's
    immediate-quiescence cycle)."""
    if tokens <= 0:
        return 1
    return prime_latency + (tokens - 1) * ideal_period + 2


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
    prime = max((t[1] for t in timing.values()), default=0)
    ideal = max((stage.ii for stage in graph.stages), default=1)
    analytic = analytic_total_cycles(prime, ideal, bounded.tokens)
    return StaticSchedule(
        graph_name=graph.name,
        tokens=bounded.tokens,
        prime_latency=prime,
        ideal_period=ideal,
        total_cycles=bounded.cycles,
        analytic_total=analytic,
        stall_free=all(n == 0 for n in bounded.stream_full_stalls.values()),
        period=bounded.period,
        stages=stages,
    )
