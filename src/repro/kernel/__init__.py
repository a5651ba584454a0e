"""The PW advection FPGA kernel, assembled per Fig. 2 of the paper.

This subpackage turns the generic dataflow machinery and the shift buffer
into the paper's actual kernel:

* :mod:`repro.kernel.config` — kernel configuration (grid, chunking, stream
  depths, pipeline latencies),
* :mod:`repro.kernel.compute` — the per-cell source-term arithmetic
  evaluated on 27-point stencil windows (identical expression trees to the
  golden scalar code),
* :mod:`repro.kernel.stages` — the dataflow stages of Fig. 2 (read data,
  shift buffer, replicate, advect U/V/W, write data),
* :mod:`repro.kernel.builder` — wires the stages into a
  :class:`~repro.dataflow.graph.DataflowGraph`,
* :mod:`repro.kernel.functional` — fast functional execution (chunked,
  vectorised),
* :mod:`repro.kernel.simulate` — cycle-accurate execution through the
  shift buffer of Fig. 3 (batched or forced-scalar), for one kernel or
  several replicas sharing one memory (Section IV),
* :mod:`repro.kernel.generic` — the same read -> shift buffer -> compute
  -> write machine for any radius-1 stencil (diffusion, buoyancy), on
  the Fig. 2 read, shift and write stages,
* :mod:`repro.kernel.cycle_model` — the closed-form cycle count validated
  against the cycle simulator, used for paper-scale problem sizes (the
  multi-kernel decomposition of Section IV is priced by
  :meth:`repro.hardware.device.FPGADevice.invocation`).
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "KernelConfig",
    "build_advection_graph",
    "build_chunk_graph",
    "build_structural_graph",
    "simulate_kernel",
    "execute_chunked",
    "KernelCycleModel",
    "CycleBreakdown",
]

_EXPORTS = LazyExports(__name__, {
    "repro.kernel.builder": ("build_advection_graph", "build_chunk_graph",
                             "build_structural_graph"),
    "repro.kernel.config": ("KernelConfig",),
    "repro.kernel.cycle_model": ("CycleBreakdown", "KernelCycleModel"),
    "repro.kernel.functional": ("execute_chunked",),
    "repro.kernel.simulate": ("simulate_kernel",),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
