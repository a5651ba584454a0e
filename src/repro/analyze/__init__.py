"""Static dataflow verification: proofs about a graph without running it.

The package abstract-interprets a :class:`~repro.dataflow.graph.DataflowGraph`
over its control plane (:mod:`repro.analyze.interp`), proves FIFO
occupancy bounds, minimal stall-free depths and deadlock-freedom
(:mod:`repro.analyze.occupancy`), derives the static schedule — start
cycles, prime latency, steady-state period, total-cycle bounds
(:mod:`repro.analyze.schedule`) — and bundles everything into one
:class:`~repro.analyze.report.AnalysisReport` consumed by the SA lint
rules, the ``repro analyze`` CLI, the batched engine's period probe
(:func:`repro.dataflow.compiled.compile_graph` attaches the proved
period as ``period_hint``) and the tuner's cost model.
:mod:`repro.analyze.twin` builds the runnable token twin used to
cross-check every claim against the exact engine.
"""

from repro.analyze.interp import (InterpRun, PeriodProof, StallWitness,
                                  default_tokens, interpret)
from repro.analyze.kernel import static_kernel_cycles
from repro.analyze.occupancy import (OccupancyProof, StreamProof,
                                     build_occupancy_proof, prove_occupancy)
from repro.analyze.report import (AnalysisReport, analyze_graph,
                                  patch_spec_depths)
from repro.analyze.schedule import (StageTiming, StaticSchedule,
                                    analyze_schedule, build_schedule,
                                    start_cycles)
from repro.analyze.twin import build_token_twin

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
    "analyze_schedule",
    "build_occupancy_proof",
    "build_schedule",
    "build_token_twin",
    "default_tokens",
    "interpret",
    "patch_spec_depths",
    "prove_occupancy",
    "start_cycles",
    "static_kernel_cycles",
]
