"""A generic cycle-level stencil kernel over the paper's shift buffer.

The advection kernel's dataflow shape — ``read -> shift buffer ->
compute -> write`` — is not specific to advection.  This module provides
that shape for *any* radius-1 stencil evaluated per window, so new
stencil kernels (the diffusion kernel, or a user's own) get a
cycle-accurate dataflow simulation for free.  The front end and
the write stage are the advection kernel's own
(:mod:`repro.kernel.stages`), over one block:

* :class:`~repro.kernel.stages.ReadDataStage` — streams the block's
  cells, one position per cycle;
* :class:`~repro.kernel.stages.ShiftBufferStage` — holds the block,
  moves one :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D` and
  forwards its full windows only (``tops=False``), as one-window
  bundles;
* :class:`~repro.kernel.stages.WriteDataStage` — with one ``in`` port,
  writes results into the output array;

and only the compute stage and the wiring are this module's:

* :class:`WindowComputeStage` — evaluates one window's own cell, plus
  the one-sided vertical boundary cell a window next to the column edge
  resolves (the burst a downstream FIFO absorbs);
* :func:`build_stencil_graph` — wires the whole machine, for the engine
  to run and, on a zero block, for lint and the analyzer to read;
* :func:`run_stencil_kernel` — builds and runs it.

Every firing count depends on the streaming position alone — the shift
buffer's regimes (:func:`~repro.shiftbuffer.buffer3d.feed_regime`, and
inside a steady plane its silent and column regimes,
:func:`~repro.shiftbuffer.buffer3d.feed_inner_regime`) and the window
centre — and each stage declares that schedule once
(:meth:`~repro.dataflow.stage.Stage.emits`, ``regime``), which the
proof and the engine's batched windows both read, so the engine runs
this machine in batched windows, bit-identical to forced-scalar
ticking.  For the same reason every stage declares its static control
parameters (:meth:`~repro.dataflow.stage.Stage.ff_structure`): a pass
over a block of a shape the caller's
:class:`~repro.dataflow.engine.ControlRecord` has seen replays that run
as one bulk step.

The data path is the advection machine's one lazy path: the shift
stage hands on runs of the values it was fed, the block's own unless a
fault dropped a cell (a one-bundle :class:`~repro.kernel.stages.
StencilBulk` per scalar emission, or, batched, one run after a jump of
its buffer with :meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.
feed_bulk`), the compute stage hands on the range of results its
windows yield (a :class:`~repro.kernel.stages.ResultRun`, with no
arithmetic), and the write stage stores the ranges in its
:class:`~repro.kernel.stages.ResultSink` and, when the engine run ends,
has each evaluated once (:meth:`WindowComputeStage.evaluate`): the
kernel's own window functions once per box of centres
(:func:`~repro.shiftbuffer.buffer3d.emission_boxes`) on a
:class:`~repro.shiftbuffer.window.WindowRun`, whose ``at`` is a
read-only strided view of the block, and each
boundary once on its layer, straight into the output.  The advect
forms run on the same run view; this machine forwards no column-top
windows, so its runs are never ``top``.

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
    RaggedFireResult,
)
from repro.dataflow.engine import ControlRecord, DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.errors import ConfigurationError, DataflowError
from repro.kernel.stages import (
    ReadDataStage,
    ResultRun,
    ShiftBufferStage,
    StencilBulk,
    WriteDataStage,
    runs_of,
)
from repro.shiftbuffer.buffer3d import emission_boxes
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow, WindowRun

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = [
    "results_before",
    "WindowComputeStage",
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


def results_before(window: int, nz: int) -> int:
    """Results the windows before forwarded window ``window`` yield.

    A compute stage's results are numbered over its block's stream,
    ``nz`` per interior column in firing order: the cell ``k = 1``, the
    boundary cell ``k = 0``, then ``k = 2 .. nz - 1``, the last of them
    the top boundary cell.  The first window of a column starts the
    column; window ``j > 0`` of it starts at result ``j + 1``.
    """
    column, j = divmod(window, nz - 2)
    return column * nz + (j + 1 if j else 0)


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
    windows = [run.bundle_at(index)[0]
               for index in range(run.start, run.stop)]
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
    keys its regime on that phase, which the base control signature
    appends: the output count depends on the window centre alone.

    A firing on a run of windows (a one-bundle
    :class:`~repro.kernel.stages.StencilBulk`, or a batched window's
    whole run) hands on its results as a
    :class:`~repro.kernel.stages.ResultRun` over the same block,
    numbered as :func:`results_before` counts them, with no arithmetic;
    the write stage has it call :meth:`evaluate` once per stored run.
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

    def _results(self, run: StencilBulk) -> ResultRun:
        """The results of the windows of ``run``, lazily."""
        return ResultRun(self, run.blocks, results_before(run.start, self.nz),
                         results_before(run.stop, self.nz))

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (run,) = inputs["in"]
        return {"out": self._results(run).materialize()}

    def evaluate(self, run: ResultRun, out: np.ndarray) -> None:
        """Evaluate the results ``[run.start, run.stop)`` of the windows
        of ``run.source``, the one block, into ``out``, each cell
        ``(cx, cy, k)`` at ``[cx - 1, cy - 1, k]``.

        ``interior`` runs once per :func:`~repro.shiftbuffer.buffer3d.
        emission_boxes` box of the windows whose own cell is among the
        results, and each boundary once per box of the columns whose
        boundary cell is, on the one layer of windows it reads
        (``cz == 1``, or ``cz == nz - 2``), all on
        :class:`WindowRun` views.
        """
        nz = self.nz
        (block,) = run.source
        ny = block.shape[1]
        (c0, p0), (c1, p1) = divmod(run.start, nz), divmod(run.stop, nz)
        # Per column, positions 0 and 2 .. nz - 2 are window cells,
        # position 1 the bottom cell and nz - 1 the top cell.
        windows = [column * (nz - 2) + (p > 0) + max(p - 2, 0)
                   for column, p in ((c0, p0), (c1, p1))]
        for box in emission_boxes(*windows, ny, nz - 2):
            x0, x1, y0, y1, z0, z1 = box
            out[x0 - 1:x1 - 1, y0 - 1:y1 - 1, z0:z1] = _run_values(
                self._interior, WindowRun(block, box))
        for top, columns, layer in (
                (False, (c0 + (p0 > 1), c1 + (p1 > 1)), (1, 2)),
                (True, (c0, c1), (nz - 2, nz - 1))):
            cell = nz - 1 if top else 0
            for x0, x1, y0, y1, _z0, _z1 in emission_boxes(*columns, ny, 1):
                out[x0 - 1:x1 - 1, y0 - 1:y1 - 1, cell:cell + 1] = \
                    _run_values(self._boundary,
                                WindowRun(block, (x0, x1, y0, y1) + layer),
                                top=top)

    def emits(self, firing: int) -> tuple[int, ...]:
        return (window_results(firing % (self.nz - 2) + 1, self.nz),)

    def regime(self, firing: int) -> tuple:
        return (firing % (self.nz - 2),)

    def ff_structure(self) -> tuple | None:
        return self._structure(self.nz)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        windows = inputs["in"]
        if len(windows) != count:
            raise DataflowError(
                f"compute {self.name!r}: batched window consumed "
                f"{len(windows)} windows for {count} firings"
            )
        runs = list(runs_of(windows, StencilBulk))
        counts = [window_results(
            np.arange(run.start, run.stop) % (self.nz - 2) + 1, self.nz)
            for run in runs]
        return RaggedFireResult(
            {"out": ChainBulk([self._results(run) for run in runs])},
            np.concatenate(counts) if counts else [])


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
    graph = DataflowGraph("stencil")
    graph.add(ReadDataStage("read", cells=block.size, latency=1))
    graph.add(ShiftBufferStage("shift", (block,), buffers=("shift",),
                               tops=False, tracker=tracker))
    graph.add(WindowComputeStage("compute", block.shape[2], interior,
                                 boundary))
    graph.add(WriteDataStage("write", {"in": out}, latency=4))
    graph.connect("read", "out", "shift", "in", depth=stream_depth)
    graph.connect("shift", "out", "compute", "in", depth=stream_depth)
    graph.connect("compute", "out", "write", "in", depth=stream_depth)
    return graph


def run_stencil_kernel(block: np.ndarray, interior: InteriorFn,
                       boundary: BoundaryFn, out: np.ndarray, *,
                       stream_depth: int = 4,
                       tracker: MemoryPortTracker | None = None,
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
        the write stage calls it on :class:`WindowRun` views, on scalar
        and batched paths alike, whose ``at`` returns a read-only view of
        the block; a constant return
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
    return DataflowEngine(graph, mode=mode, batched=batched,
                          fault_plan=fault_plan, watchdog=watchdog,
                          tracer=tracer, metrics=metrics,
                          record=record).run()
