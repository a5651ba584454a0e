"""A generic cycle-level stencil kernel over the paper's shift buffer.

The advection kernel's dataflow shape — ``read -> shift buffer ->
compute -> write`` — is not specific to advection.  This module provides
that shape for *any* radius-1 stencil evaluated per window, so new
stencil kernels (the diffusion kernel, or a user's own) get a
cycle-accurate dataflow simulation for free.  The front end is the
advection kernel's own (:mod:`repro.kernel.stages`), over one block:

* :class:`~repro.kernel.stages.ReadDataStage` — streams the block, one
  cell per cycle;
* :class:`~repro.kernel.stages.ShiftBufferStage` — feeds one
  :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D` and forwards its
  full windows only (``tops=False``), as one-window bundles;

and only the back end is this module's:

* :class:`WindowComputeStage` — evaluates one window's own cell, plus
  the one-sided vertical boundary cell a window next to the column edge
  resolves (the burst a downstream FIFO absorbs);
* :class:`ScatterWriteStage` — scatters results into an output array;
* :func:`build_stencil_graph` — wires the whole machine, for the engine
  to run and, on a zero block, for lint and the analyzer to read;
* :func:`run_stencil_kernel` — builds and runs it.

Every firing count depends on the streaming position alone — the shift
buffer's regimes (:meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.
regime`, and inside a steady plane its silent and column regimes,
:meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.inner_regime`) and the
window centre — so the engine runs this machine in batched windows,
bit-identical to forced-scalar ticking.  For the same reason every
stage declares its static control parameters
(:meth:`~repro.dataflow.stage.Stage.ff_structure`): a pass over a block
of a shape the caller's :class:`~repro.dataflow.engine.ControlRecord`
has seen replays that run as one bulk step.  Each stage
fires a batched window as a few NumPy calls: the shift stage jumps its
buffer ahead (:meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.
feed_bulk`) and forwards a lazy :class:`~repro.kernel.stages.
StencilBulk`; the compute stage evaluates the kernel's own window
functions once per box of centres (:func:`~repro.shiftbuffer.buffer3d.
emission_boxes`) on a :class:`~repro.shiftbuffer.window.WindowRun`,
whose ``at`` is a read-only strided view of the block, and interleaves
the boundary cells in; the write stage scatters the results with one
indexed assignment.  The advect stages evaluate their window forms on
the same run view; this machine forwards no column-top windows, so its
runs are never ``top``.

A window function must therefore be elementwise arithmetic over
``window.at(di, dj, dk)``: the same expression serves one
:class:`~repro.shiftbuffer.window.StencilWindow` (a float per offset)
and a :class:`~repro.shiftbuffer.window.WindowRun` (a read-only array
per offset, which it must not write into).  :func:`run_stencil_kernel`
checks that contract before the first cycle, on every path.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.dataflow.bulk import (
    Bulk,
    ChainBulk,
    FireBulkResult,
    ListBulk,
    ListFireResult,
    RaggedFireResult,
)
from repro.dataflow.engine import ControlRecord, DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.errors import ConfigurationError
from repro.kernel.stages import ReadDataStage, ShiftBufferStage, StencilBulk
from repro.shiftbuffer.buffer3d import Box
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow, WindowRun

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = [
    "CellResultBulk",
    "WindowComputeStage",
    "ScatterWriteStage",
    "build_stencil_graph",
    "run_stencil_kernel",
]


#: The value of a window's own (centre) cell: one float from a
#: :class:`StencilWindow`, one array (or a broadcast constant) from a
#: :class:`WindowRun`.
InteriorFn = Callable[[StencilWindow | WindowRun], Any]
#: The value of the one-sided boundary cell next to a window: ``k = 0``
#: from the window at ``k = 1`` (``top=False``), ``k = nz - 1`` from the
#: window at ``k = nz - 2`` (``top=True``).
BoundaryFn = Callable[..., Any]


class CellResultBulk(Bulk):
    """A run of ``(center, value)`` results backed by coordinate arrays.

    The compute stage's results interleave boundary cells with window
    centres, so they are not in centre order; the write stage scatters
    them with one indexed assignment.
    """

    def __init__(self, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray,
                 values: np.ndarray) -> None:
        self.cx = cx
        self.cy = cy
        self.cz = cz
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def slice(self, start: int, stop: int) -> "CellResultBulk":
        self._check_range(start, stop)
        return CellResultBulk(self.cx[start:stop], self.cy[start:stop],
                              self.cz[start:stop], self.values[start:stop])

    def materialize(self) -> list[tuple[tuple[int, int, int], float]]:
        return [
            ((int(self.cx[i]), int(self.cy[i]), int(self.cz[i])),
             float(self.values[i]))
            for i in range(len(self.values))
        ]


def _call_name(fn: Callable, kwargs: Mapping[str, Any]) -> str:
    """``fn``'s call as a readable string, for error messages."""
    inner = fn.func if isinstance(fn, partial) else fn
    args = "".join(f", {key}={value!r}" for key, value in kwargs.items())
    return f"{getattr(inner, '__qualname__', repr(inner))}(window{args})"


def _run_values(fn: Callable, run: WindowRun, **kwargs: Any) -> np.ndarray:
    """``fn`` evaluated on ``run``: one float64 per window, in the
    run's box shape."""
    try:
        return np.broadcast_to(np.asarray(fn(run, **kwargs), dtype=float),
                               run.shape)
    except Exception as exc:
        raise ConfigurationError(
            f"window function {_call_name(fn, kwargs)} failed on a run of "
            f"windows ({type(exc).__name__}: {exc}); window functions "
            f"must be elementwise arithmetic over window.at() and must "
            f"not write into its read-only arrays"
        ) from exc


def _check_window_fns(run: StencilBulk, interior: InteriorFn,
                      boundary: BoundaryFn) -> None:
    """Reject window functions that are not elementwise over ``at``.

    Evaluates ``interior`` and both boundaries on ``run`` (the block's
    first two windows) twice: on its :class:`WindowRun` box views, and
    on each :class:`StencilWindow` alone.  Branching on a value,
    reducing over the run, reading ``window.raw`` or writing into an
    operand (``at`` returns a read-only view) shows up as an exception
    or a difference in the bytes, and raises
    :class:`ConfigurationError`.
    """
    windows = [window for (window,) in run.materialize()]
    (block,) = run.blocks
    views = [WindowRun(block, box) for box in run.boxes()]
    for fn, kwargs in ((interior, {}), (boundary, {"top": False}),
                       (boundary, {"top": True})):
        together = np.concatenate([_run_values(fn, view, **kwargs).reshape(-1)
                                   for view in views])
        try:
            alone = np.array([fn(window, **kwargs) for window in windows],
                             dtype=float)
        except Exception as exc:
            raise ConfigurationError(
                f"window function {_call_name(fn, kwargs)} failed on a "
                f"single window ({type(exc).__name__}: {exc})"
            ) from exc
        if (alone.shape != together.shape
                or alone.tobytes() != together.tobytes()):
            raise ConfigurationError(
                f"window function {_call_name(fn, kwargs)} gives other "
                f"values on a run of windows than on each window alone; "
                f"window functions must be elementwise arithmetic over "
                f"window.at() (no branching on values, no reductions over "
                f"the run, no window.raw)"
            )


def window_results(cz: int, nz: int) -> int:
    """Results the window centred at height ``cz`` yields: its own cell,
    plus ``k = 0`` when ``cz == 1`` and ``k = nz - 1`` when
    ``cz == nz - 2`` (both at ``nz == 3``)."""
    return 1 + (cz == 1) + (cz == nz - 2)


class WindowComputeStage(Stage):
    """Evaluates each window's cell and the boundary cells it resolves.

    A window centred at ``cz`` yields ``(center, interior(window))``,
    then ``k = 0`` when ``cz == 1`` and ``k = nz - 1`` when
    ``cz == nz - 2`` (both at ``nz == 3``): :func:`window_results` many.
    The windows arrive ``nz - 2`` per column, so the stage's emission
    schedule reads firing ``i``'s centre as ``i % (nz - 2) + 1`` and
    keys its regime on that phase.  The output count depends on the
    window centre alone, which the upstream streaming position fixes,
    so the base control signature describes this stage exactly.

    A batched window evaluates ``interior`` once per box of centres on
    a :class:`WindowRun`, and each boundary once on the box's layer it
    applies to, then interleaves the results in firing order.
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
        ((window,),) = inputs["in"]
        cx, cy, cz = window.center
        results = [(window.center, self._interior(window))]
        if cz == 1:
            results.append(((cx, cy, 0), self._boundary(window, top=False)))
        if cz == self.nz - 2:
            results.append(((cx, cy, self.nz - 1),
                            self._boundary(window, top=True)))
        return {"out": results}

    def emits(self, firing: int) -> tuple[int, ...]:
        return (window_results(firing % (self.nz - 2) + 1, self.nz),)

    def regime(self, firing: int) -> tuple:
        return (firing % (self.nz - 2),)

    def ff_structure(self) -> tuple | None:
        return self._structure(self.nz)

    def _fire_box(self, block: np.ndarray,
                  box: Box) -> tuple[CellResultBulk, np.ndarray]:
        """Results of the windows of ``box`` in firing order, and the
        count per firing.

        Every column of the box fires alike: the cell of each window,
        with ``k = 0`` after the window at ``cz == 1`` and ``k = nz - 1``
        after the window at ``cz == nz - 2``.  So one per-column layout
        of ``z`` places the interior values of the whole box and each
        boundary's values of its one layer.
        """
        z0, z1 = box[4:]
        bottom, top = z0 == 1, z1 == self.nz - 1
        layout = list(range(z0, z1))
        per_firing = np.array([window_results(z, self.nz) for z in layout],
                              dtype=np.int64)
        if bottom:
            layout.insert(1, 0)
        if top:
            layout.append(self.nz - 1)
        run = WindowRun(block, box)
        values = np.empty(run.shape[:2] + (len(layout),))
        cells = _run_values(self._interior, run)
        if bottom:
            values[:, :, :1] = cells[:, :, :1]
            values[:, :, 1:2] = _run_values(
                self._boundary, WindowRun(block, box[:4] + (1, 2)),
                top=False)
            values[:, :, 2:z1 - z0 + 1] = cells[:, :, 1:]
        else:
            values[:, :, :z1 - z0] = cells
        if top:
            values[:, :, -1:] = _run_values(
                self._boundary, WindowRun(block, box[:4] + (z1 - 1, z1)),
                top=True)
        coords = np.empty((3,) + values.shape, dtype=np.int64)
        coords[0], coords[1] = run.center[:2]
        coords[2] = layout
        results = CellResultBulk(*coords.reshape(3, -1), values.reshape(-1))
        return results, np.tile(per_firing, run.shape[0] * run.shape[1])

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        windows = inputs.get("in")
        if windows is None or len(windows) != count:
            return super().fire_bulk(count, inputs, cycle)
        parts: list[Bulk] = []
        counts: list[Any] = []
        for part in windows.parts():
            if not len(part):
                continue
            if isinstance(part, StencilBulk):
                (block,) = part.blocks
                for box in part.boxes():
                    results, per_firing = self._fire_box(block, box)
                    parts.append(results)
                    counts.append(per_firing)
            else:
                # Windows a FIFO held when the batched window opened.
                firings = [self.fire(cycle, {"in": [bundle]})["out"]
                           for bundle in part.materialize()]
                parts.append(ListBulk([r for f in firings for r in f]))
                counts.append([len(f) for f in firings])
        return RaggedFireResult(
            {"out": ChainBulk(parts)},
            np.concatenate(counts) if counts else [])


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

    def ff_structure(self) -> tuple | None:
        return self._structure()

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        results = inputs.get("in")
        if results is None or len(results) != count:
            return super().fire_bulk(count, inputs, cycle)
        for part in results.parts():
            if isinstance(part, CellResultBulk):
                self._out[part.cx - 1, part.cy - 1, part.cz] = part.values
                self.cells_written += len(part)
            else:
                for result in part.materialize():
                    self.fire(cycle, {"in": [result]})
        # A write firing produces nothing: it never enters the pipeline.
        return ListFireResult([])


def build_stencil_graph(block: np.ndarray, interior: InteriorFn,
                        boundary: BoundaryFn, out: np.ndarray, *,
                        stream_depth: int = 4,
                        tracker: MemoryPortTracker | None = None,
                        ) -> DataflowGraph:
    """Wire ``read -> shift -> compute -> write`` over ``block``.

    The arguments are :func:`run_stencil_kernel`'s, unchecked.  Stage
    names, ports, IIs, latencies and stream depths depend on
    ``stream_depth`` alone, so the graph wired on a zero 3×3×3 block is
    the structural graph lint and the analyzer read for any block.
    """
    nx, ny, nz = block.shape
    blocks = (np.ascontiguousarray(block, dtype=float),)
    graph = DataflowGraph("stencil")
    graph.add(ReadDataStage("read", block=blocks, latency=1))
    graph.add(ShiftBufferStage(
        "shift", nx, ny, nz, buffers=("shift",), tops=False,
        tracker=tracker, backing=blocks))
    graph.add(WindowComputeStage("compute", nz, interior, boundary))
    graph.add(ScatterWriteStage("write", out))
    graph.connect("read", "out", "shift", "in", depth=stream_depth)
    graph.connect("shift", "out", "compute", "in", depth=stream_depth)
    graph.connect("compute", "out", "write", "in", depth=stream_depth)
    return graph


def run_stencil_kernel(block: np.ndarray, interior: InteriorFn,
                       boundary: BoundaryFn, out: np.ndarray, *,
                       stream_depth: int = 4,
                       tracker: MemoryPortTracker | None = None,
                       max_cycles: int = 10_000_000,
                       mode: str = "exact", batched: bool = True,
                       fault_plan: "FaultPlan | None" = None,
                       watchdog: int | None = None,
                       tracer: "Tracer | None" = None,
                       metrics: "MetricRegistry | None" = None,
                       record: ControlRecord | None = None) -> RunStats:
    """Run one stencil kernel pass, cycle-accurately.

    Parameters
    ----------
    block:
        The halo-extended input block, streamed Z-fastest.
    interior, boundary:
        Window arithmetic for :class:`WindowComputeStage`: the centre
        cell's value, and the one-sided vertical boundary cell's value
        (called as ``boundary(window, top=...)``).  Each must be
        elementwise arithmetic over ``window.at(di, dj, dk)``, because
        batched windows call it on a :class:`WindowRun`, whose ``at``
        returns a read-only view of the block; a constant return
        broadcasts.  Before the first cycle, every path checks that on
        the block's first two windows (see the module docstring) and
        raises :class:`ConfigurationError` otherwise, also for a
        function that writes into an operand.
        A window's results retire together, three at ``nz == 3`` and
        up to two above, so ``stream_depth`` must hold the burst: the
        proof (``repro analyze``) finds the machine deadlocks at depths
        1 and 2 when ``nz == 3`` and completes from depth 3, and needs
        depth 2 on the ``nz >= 4`` blocks checked.
    out:
        Writeable float64 interior output array, shape
        ``(nx - 2, ny - 2, nz)`` for a real-valued block of shape
        ``(nx, ny, nz)``.
    mode, batched:
        Engine execution mode.  Batched windows are bit-identical to
        forced-scalar execution (``batched=False``).
    fault_plan, watchdog, tracer, metrics:
        Passed straight to the :class:`~repro.dataflow.engine.
        DataflowEngine` (FIFO word faults, stage freezes, cycle
        watchdog, observability sinks).
    record:
        Optional :class:`~repro.dataflow.engine.ControlRecord` shared
        with the caller's other passes: a pass over a block of a shape
        the record has seen replays that run as one bulk step.
    """
    if not isinstance(block, np.ndarray):
        raise ConfigurationError(
            f"block must be a NumPy array, got {type(block).__name__}")
    if block.dtype.kind not in "biuf":
        raise ConfigurationError(
            f"block must hold real numbers, got dtype {block.dtype}")
    if block.ndim != 3:
        raise ConfigurationError(
            f"expected a 3-D block, got shape {block.shape}"
        )
    if not isinstance(out, np.ndarray):
        raise ConfigurationError(
            f"out must be a NumPy array, got {type(out).__name__}")
    nx, ny, nz = block.shape
    expected = (nx - 2, ny - 2, nz)
    if out.shape != expected:
        raise ConfigurationError(
            f"output shape {out.shape} does not match expected {expected}"
        )
    if out.dtype != np.float64:
        raise ConfigurationError(
            f"out must be a float64 array, got dtype {out.dtype}; the "
            f"kernel's double-precision results would be converted")
    if not out.flags.writeable:
        raise ConfigurationError(
            "out is read-only; the write stage scatters results into it")

    graph = build_stencil_graph(block, interior, boundary, out,
                                stream_depth=stream_depth, tracker=tracker)
    shift = graph.stage("shift")
    assert isinstance(shift, ShiftBufferStage)
    _check_window_fns(
        shift.window_run(0, min(2, (nx - 2) * (ny - 2) * (nz - 2))),
        interior, boundary)
    return DataflowEngine(graph, max_cycles=max_cycles, mode=mode,
                          batched=batched, fault_plan=fault_plan,
                          watchdog=watchdog, tracer=tracer,
                          metrics=metrics, record=record).run()
