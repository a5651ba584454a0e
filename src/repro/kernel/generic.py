"""A generic cycle-level stencil kernel over the paper's shift buffer.

The advection kernel's dataflow shape — ``read -> shift buffer ->
compute -> write`` — is not specific to advection.  This module provides
that shape for *any* radius-1 stencil evaluated per window, so new
stencil kernels (the diffusion kernel, or a user's own) get a
cycle-accurate dataflow simulation for free:

* :class:`GeneralShiftBufferStage` — streams one value per cycle into a
  :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D` and forwards its
  full (non-top) windows;
* :class:`WindowComputeStage` — evaluates one window's own cell, plus
  the one-sided vertical boundary cell a window next to the column edge
  resolves (the burst a downstream FIFO absorbs);
* :class:`ScatterWriteStage` — scatters results into an output array;
* :func:`run_stencil_kernel` — wires and runs the whole machine.

Every firing count depends on the streaming position alone — the shift
buffer's regime (:meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.
regime`) and the window centre — so the engine runs this machine in
batched windows, bit-identical to forced-scalar ticking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.dataflow.engine import DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import SourceStage, Stage
from repro.errors import ConfigurationError
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow

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

#: The value of a window's own (centre) cell.
InteriorFn = Callable[[StencilWindow], float]
#: The value of the one-sided boundary cell next to a window: ``k = 0``
#: from the window at ``k = 1`` (``top=False``), ``k = nz - 1`` from the
#: window at ``k = nz - 2`` (``top=True``).
BoundaryFn = Callable[..., float]


class GeneralShiftBufferStage(Stage):
    """Feeds one :class:`ShiftBuffer3D`; forwards its non-top windows."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, nx: int, ny: int, nz: int, *,
                 ii: int = 1, latency: int = 2,
                 tracker: MemoryPortTracker | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.buffer = ShiftBuffer3D(
            nx, ny, nz,
            tracker=tracker if tracker is not None
            else MemoryPortTracker(enforce=False),
            name=name,
        )

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (value,) = inputs["in"]
        windows = [window for window in self.buffer.feed(float(value))
                   if not window.top]
        return {"out": windows} if windows else {}

    def ff_signature(self, cycle: int) -> tuple:
        return super().ff_signature(cycle) + self.buffer.regime()

    def ff_fire_capacity(self, want: int) -> int:
        return self.buffer.regime_feeds(want)

    def ff_inner_signature(self, cycle: int) -> tuple | None:
        inner = self.buffer.inner_regime()
        return None if inner is None else super().ff_signature(cycle) + inner

    def ff_inner_capacity(self, want: int) -> int:
        return self.buffer.inner_regime_feeds(want)


class WindowComputeStage(Stage):
    """Evaluates each window's cell and the boundary cells it resolves.

    A window centred at ``cz`` yields ``(center, interior(window))``,
    then ``k = 0`` when ``cz == 1`` and ``k = nz - 1`` when
    ``cz == nz - 2`` (both at ``nz == 3``).  The output count depends on
    the window centre alone, which the upstream streaming position
    fixes, so the base control signature describes this stage exactly.
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, nz: int, interior: InteriorFn,
                 boundary: BoundaryFn, *, ii: int = 1,
                 latency: int = 8) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.nz = nz
        self._interior = interior
        self._boundary = boundary

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (window,) = inputs["in"]
        cx, cy, cz = window.center
        results = [(window.center, self._interior(window))]
        if cz == 1:
            results.append(((cx, cy, 0), self._boundary(window, top=False)))
        if cz == self.nz - 2:
            results.append(((cx, cy, self.nz - 1),
                            self._boundary(window, top=True)))
        return {"out": results}


class ScatterWriteStage(Stage):
    """Writes (center, value) results into an interior output array.

    Centres arrive in the streamed block's halo coordinates; the stage
    shifts them by the one-cell halo before scattering.
    """

    input_ports = ("in",)
    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str, out: np.ndarray, *, ii: int = 1,
                 latency: int = 4) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._out = out
        self.cells_written = 0

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        ((center, value),) = inputs["in"]
        cx, cy, cz = center
        self._out[cx - 1, cy - 1, cz] = value
        self.cells_written += 1
        return {}


def run_stencil_kernel(block: np.ndarray, interior: InteriorFn,
                       boundary: BoundaryFn, out: np.ndarray, *,
                       stream_depth: int = 4,
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
    interior, boundary:
        Window arithmetic for :class:`WindowComputeStage`: the centre
        cell's value, and the one-sided vertical boundary cell's value
        (called as ``boundary(window, top=...)``).  A window may yield
        three results at ``nz == 3``, so ``stream_depth`` must be >= 4
        for the downstream FIFO to absorb the burst.
    out:
        Interior output array, shape ``(nx - 2, ny - 2, nz)`` for a
        block of shape ``(nx, ny, nz)``.
    mode, batched:
        Engine execution mode.  Batched windows are bit-identical to
        forced-scalar execution (``batched=False``).
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
    expected = (nx - 2, ny - 2, nz)
    if out.shape != expected:
        raise ConfigurationError(
            f"output shape {out.shape} does not match expected {expected}"
        )

    graph = DataflowGraph("stencil")
    graph.add(SourceStage("read", iter(block.reshape(-1))))
    shift = graph.add(GeneralShiftBufferStage(
        "shift", nx, ny, nz, tracker=tracker))
    compute = graph.add(WindowComputeStage("compute", nz, interior,
                                           boundary))
    write = graph.add(ScatterWriteStage("write", out))
    graph.connect("read", "out", shift, "in", depth=stream_depth)
    graph.connect(shift, "out", compute, "in", depth=stream_depth)
    graph.connect(compute, "out", write, "in", depth=stream_depth)
    return DataflowEngine(graph, max_cycles=max_cycles, mode=mode,
                          batched=batched, fault_plan=fault_plan,
                          watchdog=watchdog, tracer=tracer,
                          metrics=metrics).run()
