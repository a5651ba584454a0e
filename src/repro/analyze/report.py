"""Top-level analysis report: one object per graph, shared proof runs.

:func:`analyze_graph` performs the two abstract runs (bounded and
unbounded) at most once each and feeds both the occupancy prover and
the schedule analyzer from them; the SA lint rules, the ``repro
analyze`` CLI and ``repro.tune``'s cost model all consume this one
report.  Where no FIFO ever fills, the two runs are one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.dataflow.graph import DataflowGraph
from repro.analyze.interp import default_tokens, interpret
from repro.analyze.occupancy import OccupancyProof, build_occupancy_proof
from repro.analyze.schedule import StaticSchedule, build_schedule

__all__ = ["AnalysisReport", "analyze_graph", "patch_spec_depths"]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the static verifier proved about one graph."""

    graph_name: str
    tokens: int
    occupancy: OccupancyProof
    schedule: StaticSchedule

    @property
    def safe(self) -> bool:
        return self.occupancy.safe

    @property
    def ok(self) -> bool:
        """Deadlock-free and sustaining the ideal steady-state rate."""
        return self.safe and not self.occupancy.throughput_collapsed

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph_name,
            "tokens": self.tokens,
            "ok": self.ok,
            "safe": self.safe,
            "occupancy": self.occupancy.to_dict(),
            "schedule": self.schedule.to_dict(),
        }

    def render_text(self) -> str:
        occ, sched = self.occupancy, self.schedule
        if not self.safe:
            verdict = "DEADLOCK"
        elif occ.throughput_collapsed:
            verdict = "throughput collapse (proved)"
        elif occ.stall_free:
            verdict = "deadlock-free (proved), stall-free"
        else:
            verdict = "deadlock-free (proved), transient stalls"
        lines = [
            f"graph {self.graph_name!r} (tokens={self.tokens})",
            f"  verdict: {verdict}",
            f"  prime latency {sched.prime_latency}, "
            f"ideal period {sched.ideal_period}",
        ]
        if occ.period is not None:
            lines.append(
                f"  proved period: {occ.period.cycles} cycle(s) / "
                f"{occ.period.tokens_per_period} token(s)"
            )
        lines.append(f"  total cycles {sched.total_cycles}")
        witness = occ.witness
        if witness is not None and (not self.ok or not occ.stall_free):
            lines.append(f"  witness: {witness.describe()}")
        lines.append("  streams:")
        for name in sorted(occ.streams):
            proof = occ.streams[name]
            lines.append(
                f"    {name}: depth {proof.depth}, "
                f"min_safe {proof.min_safe}, "
                f"high water {proof.high_water}, "
                f"full stalls {proof.full_stalls} [{proof.verdict}]"
            )
        return "\n".join(lines)


def analyze_graph(graph: DataflowGraph,
                  tokens: int | None = None) -> AnalysisReport:
    """Statically analyze ``graph``: occupancy proof + schedule.

    The bounded run is interpreted only when it can differ from the
    unbounded one.  If the unbounded run is deadlock-free and no
    stream's high-water mark exceeds its depth, no push is ever
    refused, so the bounded machine takes the unbounded one's every
    step (the induction in :mod:`repro.analyze.occupancy`): its run is
    the unbounded run, marked bounded.
    """
    if tokens is None:
        tokens = default_tokens(graph)
    unbounded = interpret(graph, tokens, bounded=False)
    if unbounded.safe and all(
            unbounded.stream_high_water[stream.name] <= stream.depth
            for stream in graph.streams):
        bounded = replace(unbounded, bounded=True)
    else:
        bounded = interpret(graph, tokens)
    return AnalysisReport(
        graph_name=graph.name,
        tokens=tokens,
        occupancy=build_occupancy_proof(graph, bounded, unbounded),
        schedule=build_schedule(graph, bounded),
    )


def patch_spec_depths(spec: Mapping[str, Any],
                      depths: Mapping[str, int]) -> dict[str, Any]:
    """A copy of design-spec ``spec`` with FIFO depths set to ``depths``.

    Explicit graphs get per-stream ``depth`` entries (streams are matched
    by explicit name or the derived ``"src->dst"`` endpoint name); the
    derived advection graph carries one scalar ``kernel.stream_depth``,
    which is raised to the largest minimal depth.
    """
    patched = copy.deepcopy(dict(spec))
    graph_spec = patched.get("graph")
    if isinstance(graph_spec, Mapping) and "streams" in graph_spec:
        for entry in patched["graph"].get("streams", ()):
            if not isinstance(entry, dict):
                continue
            name = str(entry.get(
                "name", f"{entry.get('src', '')}->{entry.get('dst', '')}"))
            if name in depths:
                entry["depth"] = depths[name]
    elif depths:
        kernel = patched.setdefault("kernel", {})
        if isinstance(kernel, dict):
            kernel["stream_depth"] = max(depths.values())
    return patched
