"""A generic cycle-level stencil kernel over the general shift buffer.

The advection kernel's dataflow shape — ``read -> shift buffer ->
compute -> write`` — is not specific to advection.  This module provides
that shape for *any* per-window computation, so new stencil kernels (the
diffusion kernel, or a user's own) get a cycle-accurate dataflow
simulation for free:

* :class:`GeneralShiftBufferStage` — streams one value per cycle into a
  :class:`~repro.shiftbuffer.general.GeneralShiftBuffer` and emits its
  windows;
* :class:`WindowComputeStage` — applies a user function mapping one
  window to zero or more ``(center, value)`` results (several, when a
  window also resolves boundary cells — the FIFO-absorbed burst pattern);
* :class:`ScatterWriteStage` — scatters results into an output array;
* :func:`run_stencil_kernel` — wires and runs the whole machine.

The shift-buffer and compute stages are data-dependent, so they veto
batched windows: the engine runs this machine on its scalar loop and
records why on :attr:`~repro.dataflow.engine.RunStats.batch_fallback_reason`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.dataflow.engine import DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import SourceStage, Stage
from repro.errors import ConfigurationError
from repro.shiftbuffer.general import GeneralShiftBuffer, GeneralWindow
from repro.shiftbuffer.ports import MemoryPortTracker

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = [
    "GeneralShiftBufferStage",
    "WindowComputeStage",
    "ScatterWriteStage",
    "run_stencil_kernel",
]

#: A window computation: one window -> [(center, value), ...].
WindowFn = Callable[[GeneralWindow], Sequence[tuple[tuple[int, int, int],
                                                    float]]]


class GeneralShiftBufferStage(Stage):
    """Feeds a radius-``r`` shift buffer; emits its windows."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, nx: int, ny: int, nz: int, *,
                 radius: int = 1, ii: int = 1, latency: int = 2,
                 tracker: MemoryPortTracker | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.buffer = GeneralShiftBuffer(
            nx, ny, nz, radius=radius,
            tracker=tracker if tracker is not None
            else MemoryPortTracker(enforce=False),
            name=name,
        )

    #: Window emission depends on the buffer's fill position, which the
    #: base control-state fingerprint cannot see: veto steady-state
    #: detection outright so batched execution can never match a false
    #: period across priming states.
    unit_rate = False

    def ff_signature(self, at_cycle: int) -> None:
        return None

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (value,) = inputs["in"]
        windows = self.buffer.feed(float(value))
        return {"out": windows} if windows else {}


class WindowComputeStage(Stage):
    """Applies a window function; forwards its (center, value) results."""

    input_ports = ("in",)
    output_ports = ("out",)

    #: The user function decides how many results a window yields, so
    #: the output count is data-dependent: veto steady-state detection.
    unit_rate = False

    def __init__(self, name: str, fn: WindowFn, *, ii: int = 1,
                 latency: int = 8) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._fn = fn

    def ff_signature(self, at_cycle: int) -> None:
        return None

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (window,) = inputs["in"]
        results = list(self._fn(window))
        return {"out": results} if results else {}


class ScatterWriteStage(Stage):
    """Writes (center, value) results into an interior output array.

    Centres arrive in the streamed block's halo coordinates; the stage
    shifts them by the halo depth before scattering.
    """

    input_ports = ("in",)
    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str, out: np.ndarray, *, halo: int = 1,
                 ii: int = 1, latency: int = 4) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._out = out
        self._halo = halo
        self.cells_written = 0

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        ((center, value),) = inputs["in"]
        cx, cy, cz = center
        self._out[cx - self._halo, cy - self._halo, cz] = value
        self.cells_written += 1
        return {}


def run_stencil_kernel(block: np.ndarray, fn: WindowFn, out: np.ndarray, *,
                       radius: int = 1, stream_depth: int = 4,
                       tracker: MemoryPortTracker | None = None,
                       max_cycles: int = 10_000_000,
                       mode: str = "exact", batched: bool = True,
                       fault_plan: "FaultPlan | None" = None,
                       watchdog: int | None = None,
                       tracer: "Tracer | None" = None,
                       metrics: "MetricRegistry | None" = None) -> RunStats:
    """Run one stencil kernel pass, cycle-accurately.

    Parameters
    ----------
    block:
        The halo-extended input block, streamed Z-fastest.
    fn:
        Window computation; may return several results per window (the
        downstream FIFO must absorb the burst: ``stream_depth`` >= the
        largest burst + 1).
    out:
        Interior output array, shape ``(nx - 2r, ny - 2r, nz)`` in the
        x/y axes with the full z extent of ``block``.
    mode, batched:
        Engine execution mode.  The shift-buffer and window-compute
        stages are data-dependent (``unit_rate = False``, no
        ``ff_signature``), so batched execution falls back to the scalar
        loop with the veto recorded on
        :attr:`~repro.dataflow.engine.RunStats.batch_fallback_reason` —
        by design, and bit-identical to forced-scalar execution.
    fault_plan, watchdog, tracer, metrics:
        Passed straight to the :class:`~repro.dataflow.engine.
        DataflowEngine` (FIFO word faults, stage freezes, cycle
        watchdog, observability sinks).
    """
    if block.ndim != 3:
        raise ConfigurationError(
            f"expected a 3-D block, got shape {block.shape}"
        )
    nx, ny, nz = block.shape
    expected = (nx - 2 * radius, ny - 2 * radius, nz)
    if out.shape != expected:
        raise ConfigurationError(
            f"output shape {out.shape} does not match expected {expected}"
        )

    graph = DataflowGraph("stencil")
    graph.add(SourceStage("read", iter(block.reshape(-1))))
    shift = graph.add(GeneralShiftBufferStage(
        "shift", nx, ny, nz, radius=radius, tracker=tracker))
    compute = graph.add(WindowComputeStage("compute", fn))
    write = graph.add(ScatterWriteStage("write", out, halo=radius))
    graph.connect("read", "out", shift, "in", depth=stream_depth)
    graph.connect(shift, "out", compute, "in", depth=stream_depth)
    graph.connect(compute, "out", write, "in", depth=stream_depth)
    return DataflowEngine(graph, max_cycles=max_cycles, mode=mode,
                          batched=batched, fault_plan=fault_plan,
                          watchdog=watchdog, tracer=tracer,
                          metrics=metrics).run()
