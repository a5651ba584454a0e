"""A generic cycle-level dataflow machine simulator.

The paper's central methodology is to view the FPGA kernel as an
application-specific *dataflow machine*: independent stages running
concurrently, streaming values to each other, each producing one result per
clock cycle in steady state (initiation interval II = 1).  This subpackage
implements exactly that abstraction:

* :class:`~repro.dataflow.stream.Stream` — a bounded FIFO channel (an HLS
  stream / OpenCL channel) with backpressure and stall statistics,
* :class:`~repro.dataflow.stage.Stage` — a pipelined processing stage with a
  configurable initiation interval and pipeline latency,
* :class:`~repro.dataflow.graph.DataflowGraph` — stage wiring plus
  structural validation, and
* :class:`~repro.dataflow.engine.DataflowEngine` — the cycle-driven
  simulator, which reports cycle counts, stall breakdowns and per-stage
  occupancy so dataflow designs can be compared quantitatively, and
* :func:`~repro.dataflow.compiled.compile_graph` — the plan behind the
  engine's batched exact mode: tick order, stream rows and stream index.
  The engine opens a window of whole periods wherever its control
  fingerprint recurs, and advances it in one Python-level step.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "Stream",
    "Stage",
    "SourceStage",
    "SinkStage",
    "FunctionStage",
    "ConstStage",
    "DataflowGraph",
    "DataflowEngine",
    "ControlRecord",
    "RunStats",
    "CompiledGraph",
    "compile_graph",
]

_EXPORTS = LazyExports(__name__, {
    "repro.dataflow.compiled": ("CompiledGraph", "compile_graph"),
    "repro.dataflow.engine": ("ControlRecord", "DataflowEngine", "RunStats"),
    "repro.dataflow.graph": ("DataflowGraph",),
    "repro.dataflow.stage": ("ConstStage", "FunctionStage", "SinkStage",
                             "SourceStage", "Stage"),
    "repro.dataflow.stream": ("Stream",),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
