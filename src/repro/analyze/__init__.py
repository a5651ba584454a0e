"""Static dataflow verification: proofs about a graph without running it.

The package abstract-interprets a :class:`~repro.dataflow.graph.DataflowGraph`
over its control plane, reading each stage's declared emission
schedule (:mod:`repro.analyze.interp`), proves FIFO occupancy bounds,
minimal stall-free depths and deadlock-freedom
(:mod:`repro.analyze.occupancy`), derives the static schedule — start
cycles, prime latency, steady-state period, the exact total
(:mod:`repro.analyze.schedule`) — and bundles everything into one
:class:`~repro.analyze.report.AnalysisReport` consumed by the SA lint
rules, the ``repro analyze`` CLI and the tuner's cost model.
:mod:`repro.analyze.twin` builds the runnable token twin used to
cross-check every claim against the exact engine.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "AnalysisReport",
    "InterpRun",
    "OccupancyProof",
    "PeriodProof",
    "StageTiming",
    "StallWitness",
    "StaticSchedule",
    "StreamProof",
    "analyze_graph",
    "build_occupancy_proof",
    "build_schedule",
    "build_token_twin",
    "default_tokens",
    "interpret",
    "patch_spec_depths",
    "start_cycles",
    "static_kernel_cycles",
]

_EXPORTS = LazyExports(__name__, {
    "repro.analyze.interp": ("InterpRun", "PeriodProof", "StallWitness",
                             "default_tokens", "interpret", "start_cycles"),
    "repro.analyze.kernel": ("static_kernel_cycles",),
    "repro.analyze.occupancy": ("OccupancyProof", "StreamProof",
                                "build_occupancy_proof"),
    "repro.analyze.report": ("AnalysisReport", "analyze_graph",
                             "patch_spec_depths"),
    "repro.analyze.schedule": ("StageTiming", "StaticSchedule",
                               "build_schedule"),
    "repro.analyze.twin": ("build_token_twin",),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
