"""The dataflow stages of the advection kernel (the boxes of Fig. 2).

``read data -> shift buffer -> replicate -> advect U/V/W -> write data``

Each stage is a :class:`~repro.dataflow.stage.Stage`, so the cycle engine
gives us the machine behaviour (II, pipeline fill, backpressure) while the
functional behaviour lives in :mod:`repro.kernel.compute` and
:mod:`repro.shiftbuffer.buffer3d` — the same separation the HLS code keeps
between pragmas and arithmetic.

The front end — :class:`ReadDataStage` and :class:`ShiftBufferStage`,
with the :class:`CellBlockBulk` and :class:`StencilBulk` runs they hand
on — streams any number of field blocks, so the generic stencil machine
(:mod:`repro.kernel.generic`) is built on it too: three blocks here, one
there.  A cell travels as its position in the blocks' streaming order.

The shift stage declares its control once, as its emission schedule,
which the static analyzer and the engine's batched windows both read.

The data path is one path, lazy from the read stage to the write stage.
The shift stage holds the blocks, and hands on runs of the values it was
fed, not windows: a one-bundle :class:`StencilBulk` per scalar emission,
one run per batched window.  While every cell it takes is its buffers'
position, the runs are runs of the blocks; a cell that is not (only a
word a fault dropped makes one) is stored at its feed position in a copy
of the blocks, which the runs are cut from from then on.  The Fig. 3
buffer is a delay line, so these are the windows its registers would
hold.  Replicate copies the run to the advect stages, which time the
21 operations and hand on their results as a :class:`ResultRun` of the
same bundles, with no arithmetic.  The write stage, which both machines
share, keeps one :class:`ResultSink` per port, which stores those runs
of results, joins contiguous ones, and when the run ends
(:meth:`~repro.dataflow.stage.Stage.finish`) has each evaluated once by
the stage that produced it (:meth:`ResultRun.evaluate`): here, the
advect stage's window form on
:class:`~repro.shiftbuffer.window.WindowRun` box views of the blocks,
straight into the output arrays, one call per
:func:`~repro.shiftbuffer.buffer3d.emission_boxes` box for its full
windows and one for its column-top layer.  The generic stencil
machine's compute stage hands on and evaluates its results the same
way.  A scalar cycle therefore moves control and run bounds only, and
no stage cuts a :class:`~repro.shiftbuffer.window.StencilWindow`.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.dataflow.bulk import (
    Bulk,
    ChainBulk,
    FireBulkResult,
    ListBulk,
    ListFireResult,
    UniformFireResult,
)
from repro.dataflow.stage import Stage
from repro.errors import ConfigurationError, DataflowError
from repro.shiftbuffer.buffer3d import (
    Box,
    ShiftBuffer3D,
    emission_boxes,
    feed_emissions,
    feed_inner_regime,
    feed_position,
    feed_regime,
    forwarded_before,
    forwarded_emission,
    inner_regime_stop,
    producing_feed,
    producing_feed_stop,
    regime_stop,
)
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow, WindowRun

__all__ = [
    "CellBlockBulk",
    "StencilBulk",
    "ResultRun",
    "ResultSink",
    "MemoryArbiter",
    "ReadDataStage",
    "ShiftBufferStage",
    "ReplicateStage",
    "AdvectStage",
    "WriteDataStage",
]


def runs_of(bulk: Bulk, kind: type) -> Iterator[Any]:
    """The runs of ``kind`` that ``bulk`` holds, in order: its ``kind``
    parts whole, and the one-item runs of its other parts, the items a
    FIFO held when a batched window opened."""
    for part in bulk.parts():
        if isinstance(part, kind):
            yield part
        else:
            yield from part.materialize()


def _read_only(block: np.ndarray) -> np.ndarray:
    """A read-only view of ``block``: window cuts inherit the flag."""
    view = block.view()
    view.flags.writeable = False
    return view


class CellBlockBulk(Bulk):
    """The cells ``[start, stop)`` of the streamed blocks.

    A cell is its position in the blocks' streaming order, so a run is
    two ints, and a FIFO leftover materialises as
    ``list(range(start, stop))``.
    """

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def slice(self, start: int, stop: int) -> "CellBlockBulk":
        self._check_range(start, stop)
        return CellBlockBulk(self.start + start, self.start + stop)

    def materialize(self) -> list[int]:
        return list(range(self.start, self.stop))


class StencilBulk(Bulk):
    """The forwarded bundles ``[start, stop)`` of a streamed set of blocks.

    Bundles are numbered in forwarding order, ``per_column`` per
    interior column (see :func:`~repro.shiftbuffer.buffer3d.
    forwarded_emission`).  The run stays lazy all the way to the write
    stage, where its results (a :class:`ResultRun`) are evaluated on
    :func:`~repro.shiftbuffer.buffer3d.emission_boxes` of the blocks,
    through :class:`WindowRun` views.  A bundle travels alone, in a FIFO or a
    stage pipeline, as a one-bundle run (:meth:`materialize`), which is
    also what the shift stage's scalar firing hands on.
    :meth:`bundle_at` cuts one bundle's windows; no engine stage calls
    it.  ``buffer`` supplies the block geometry.
    """

    def __init__(self, buffer: ShiftBuffer3D, blocks: tuple[np.ndarray, ...],
                 start: int, stop: int, per_column: int) -> None:
        self.buffer = buffer
        self.blocks = blocks
        self.start = start
        self.stop = stop
        self.per_column = per_column

    @property
    def ny(self) -> int:
        return self.buffer.ny

    @property
    def nz(self) -> int:
        return self.buffer.nz

    def __len__(self) -> int:
        return self.stop - self.start

    def span(self, start: int, stop: int) -> "StencilBulk":
        """The bundles ``[start, stop)`` of the same blocks, numbered as
        this run's."""
        return StencilBulk(self.buffer, self.blocks, start, stop,
                           self.per_column)

    def slice(self, start: int, stop: int) -> "StencilBulk":
        self._check_range(start, stop)
        return self.span(self.start + start, self.start + stop)

    def materialize(self) -> list["StencilBulk"]:
        return [self.span(index, index + 1)
                for index in range(self.start, self.stop)]

    def bundle_at(self, index: int) -> tuple[StencilWindow, ...]:
        """Bundle ``index`` of the blocks: one :class:`StencilWindow` per
        block, cut with :meth:`ShiftBuffer3D.window_at`."""
        emission = forwarded_emission(index, self.nz, self.per_column)
        return tuple(self.buffer.window_at(emission, block)
                     for block in self.blocks)

    def boxes(self) -> list[Box]:
        """The bundles of this run as boxes of centres, in forwarding
        order."""
        return emission_boxes(self.start, self.stop, self.ny,
                              self.per_column)


class ResultRun(Bulk):
    """A compute stage's results ``[start, stop)`` over one source, not
    yet evaluated.

    The back ends' compute stages hand these on instead of values, and
    the write stage's :class:`ResultSink` stores them and evaluates each
    joined run once.  A result that travels alone, in a FIFO or a stage
    pipeline, is a one-result run (:meth:`materialize`).  ``source`` is
    what the results are numbered over, the streamed blocks: two runs of
    one stage and one source whose ranges meet are one run.  ``stage`` is
    the compute stage that numbers them, and evaluates them with its
    ``evaluate(run, out)``.
    """

    def __init__(self, stage: Any, source: Any, start: int,
                 stop: int) -> None:
        self.stage = stage
        self.source = source
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def span(self, start: int, stop: int) -> "ResultRun":
        """The results ``[start, stop)`` of the same stage and source."""
        return ResultRun(self.stage, self.source, start, stop)

    def slice(self, start: int, stop: int) -> "ResultRun":
        self._check_range(start, stop)
        return self.span(self.start + start, self.start + stop)

    def materialize(self) -> list["ResultRun"]:
        return [self.span(index, index + 1)
                for index in range(self.start, self.stop)]

    def evaluate(self, out: np.ndarray) -> None:
        """Evaluate every result into ``out``, the cell ``(cx, cy, cz)``
        at ``[cx - 1, cy - 1, cz]``, as the stage numbers them."""
        self.stage.evaluate(self, out)


class ResultSink:
    """One output array of a write stage, and the result runs stored
    for it.

    :meth:`write` stores a :class:`ResultRun`, joined with the last
    stored run when it continues it, and :meth:`flush` evaluates each
    stored run once, in order, straight into the array; the write stage
    flushes in :meth:`~repro.dataflow.stage.Stage.finish`.  A cell
    ``(cx, cy, cz)`` lands at ``[cx - 1 + x_offset, cy - 1 + y_offset,
    cz]``.
    """

    def __init__(self, array: np.ndarray, x_offset: int = 0,
                 y_offset: int = 0) -> None:
        self._out = array[x_offset:, y_offset:]
        #: ``[run, stop]`` per stored run, in write order: the results
        #: ``[run.start, stop)`` of ``run``'s stage and source.
        self._runs: list[list[Any]] = []

    def write(self, run: ResultRun) -> None:
        """Store a result run."""
        runs = self._runs
        if runs:
            last = runs[-1]
            stored = last[0]
            if last[1] == run.start and stored.stage is run.stage \
                    and stored.source is run.source:
                last[1] = run.stop
                return
        runs.append([run, run.stop])

    def write_bulk(self, bulk: Bulk) -> None:
        """:meth:`write` every result of ``bulk``, its runs whole."""
        for run in runs_of(bulk, ResultRun):
            self.write(run)

    def flush(self) -> None:
        """Evaluate the stored runs into the array, in write order."""
        for run, stop in self._runs:
            run.span(run.start, stop).evaluate(self._out)
        self._runs.clear()

    def clear(self) -> None:
        """Drop the stored runs unevaluated."""
        self._runs.clear()


class MemoryArbiter:
    """Grants cell-read issues at a sustained fractional rate per cycle.

    ``rate`` is the number of cell reads the shared memory can issue per
    kernel clock cycle (e.g. 6 kernels on HBM2 get rate >= 6; two DDR
    banks might sustain 2.5).  A credit accumulator implements fractional
    rates exactly.
    """

    def __init__(self, rate: float) -> None:
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigurationError(
                f"arbiter rate must be positive and finite, got {rate}")
        self.rate = rate
        self._credits = 0.0
        self._cycle = -1
        self.grants = 0
        self.denials = 0

    def tick(self, cycle: int) -> None:
        """Advance to ``cycle``, accruing credits (capped at one cycle's
        worth above the integer part to avoid unbounded bursts)."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._credits = min(self._credits + self.rate,
                                self.rate + 1.0)

    def request(self) -> bool:
        """One stage asks to issue one cell read this cycle."""
        if self._credits >= 1.0:
            self._credits -= 1.0
            self.grants += 1
            return True
        self.denials += 1
        return False


class ReadDataStage(Stage):
    """Streams the cells of one block set from "external memory".

    The memory system's sustained throughput is modelled by the ``ii``
    parameter: an external memory that can only supply a cell every other
    cycle is a read stage with II = 2 (the device model computes this from
    bandwidth; see :mod:`repro.hardware.memory`).

    Parameters
    ----------
    cells:
        The number of cells the blocks hold.  A cell travels as its
        position in the blocks' streaming order (Z fastest, then Y, then
        X), which the shift stage that holds the blocks reads: a scalar
        firing hands on its cursor, a batched firing (``fire_bulk``) its
        whole run as a :class:`CellBlockBulk`.  The stage reads no field
        value.
    arbiter:
        The :class:`MemoryArbiter` of a memory shared with other kernel
        replicas, or ``None`` for a memory of its own.  Each read must
        win one of the arbiter's grants; a denied read stalls the stage
        for the cycle.
    """

    input_ports: tuple[str, ...] = ()
    output_ports = ("out",)

    def __init__(self, name: str, *, cells: int, ii: int = 1,
                 latency: int = 16,
                 arbiter: MemoryArbiter | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        if cells < 1:
            raise DataflowError(
                f"read stage {name!r}: cells must be >= 1, got {cells}")
        self._total = cells
        self._cursor = 0
        self.arbiter = arbiter

    def exhausted(self) -> bool:
        return self._cursor >= self._total

    def _try_fire(self, cycle: int) -> bool:
        arbiter = self.arbiter
        if arbiter is not None:
            arbiter.tick(cycle)
        if cycle < self._next_fire_cycle:
            self.stats.ii_waits += 1
            return False
        if len(self._pipeline) >= self.latency:
            self.stats.pipeline_full_stalls += 1
            return False
        if self._cursor >= self._total:
            return False
        if arbiter is not None and not arbiter.request():
            self.stats.input_stalls += 1  # starved by the memory system
            return False
        cell = self._cursor
        self._cursor += 1
        self.stats.fires += 1
        self._next_fire_cycle = cycle + self.ii
        self._pipeline.append(
            (cycle + self.latency, {"out": [cell]}, (("out", 1),)))
        return True

    def ff_signature(self, cycle: int) -> tuple | None:
        signature = super().ff_signature(cycle) + (
            self._cursor < self._total,)
        arbiter = self.arbiter
        if arbiter is None:
            return signature
        # Once any request has been denied, grant order depends on the
        # denial history, which the periodicity proof does not cover:
        # veto batched windows for the rest of the run.  Until then the
        # credit accumulator decides *when* grants are available, so it
        # joins the signature.
        if arbiter.denials > 0:
            return None
        return signature + (arbiter._credits,)

    def ff_fire_capacity(self, want: int) -> int:
        return min(want, self._total - self._cursor)

    def ff_structure(self) -> tuple | None:
        # Grants depend on the shared arbiter's history, which no
        # constructor parameter fixes: an arbitrated run is never
        # recorded or replayed.
        if self.arbiter is not None:
            return None
        return self._structure(self._total)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        if count > self._total - self._cursor:
            raise DataflowError(
                f"read stage {self.name!r}: batched window wants {count} "
                f"cells, only {self._total - self._cursor} remain"
            )
        start = self._cursor
        self._cursor += count
        return UniformFireResult({"out": CellBlockBulk(start, self._cursor)})

    def ff_commit(self, old_cycle: int, new_cycle: int, *, fires: int,
                  retired: int,
                  tail_outputs: list[dict[str, list[Any]]]) -> None:
        super().ff_commit(old_cycle, new_cycle, fires=fires,
                          retired=retired, tail_outputs=tail_outputs)
        if self.arbiter is not None:
            # Every batched firing would have won one grant.
            self.arbiter.grants += fires


class _ShiftFireResult(FireBulkResult):
    """Fire-bulk result of the shift-buffer stage.

    The bundles of a :class:`StencilBulk` map to producing feeds by
    closed-form arithmetic (:func:`~repro.shiftbuffer.buffer3d.
    producing_feed`: a column top forwards two bundles per feed when its
    top windows travel); the tail that re-enters the stage pipeline
    holds one-bundle runs.
    """

    def __init__(self, bulk: StencilBulk) -> None:
        self._bulk = bulk
        self._geometry = (bulk.nz, bulk.per_column)
        if bulk.stop == bulk.start:
            self.producing_firings = 0
            self._first_feed = 0
        else:
            self._first_feed = producing_feed(bulk.start, *self._geometry)
            self.producing_firings = (
                producing_feed(bulk.stop - 1, *self._geometry)
                - self._first_feed + 1)

    def head_bulk(self, port: str, count: int) -> Bulk:
        if count == 0:
            return ListBulk([])
        stop = min(
            producing_feed_stop(self._first_feed + count - 1,
                                *self._geometry),
            self._bulk.stop,
        )
        return self._bulk.slice(0, stop - self._bulk.start)

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        firings: list[dict[str, list[Any]]] = []
        for feed in range(self._first_feed + self.producing_firings - count,
                          self._first_feed + self.producing_firings):
            stop = min(producing_feed_stop(feed, *self._geometry),
                       self._bulk.stop)
            start = max(producing_feed_stop(feed - 1, *self._geometry)
                        if feed > 0 else 0, self._bulk.start)
            firings.append({"out": self._bulk.span(start, stop).materialize()})
        return firings


class ShiftBufferStage(Stage):
    """Moves one shift buffer per streamed block; emits window bundles.

    One cell (its position in the blocks) is consumed per firing, and
    zero, one or two bundles are produced, each one window per block.  A
    column top's feed completes two windows, its full one and the
    one-sided top one.  With ``tops`` (the advection kernel) both travel
    downstream — the burst the downstream FIFO absorbs, see the
    shift-buffer docs; without it (the generic stencils, which resolve
    their boundary cells from full windows) only the full one does.
    Forwarded bundles are numbered ``per_column`` per interior column:
    ``nz - 1`` with tops, ``nz - 2`` without.

    Its emission schedule (:meth:`emits`, :meth:`regime`,
    :meth:`regime_left`) reads the buffer's own position arithmetic at
    feed ``i`` (:func:`~repro.shiftbuffer.buffer3d.feed_emissions`,
    :func:`~repro.shiftbuffer.buffer3d.feed_regime`,
    :func:`~repro.shiftbuffer.buffer3d.regime_stop`), which the base
    ``ff_signature`` and ``ff_fire_capacity`` read at the firing count;
    the engine's inner regime reads ``feed_inner_regime`` there too.

    ``blocks`` are the streamed blocks, all of one shape, which gives
    the buffers' extents; ``buffers`` names the buffers, one per block,
    whose memories appear under these names in port reports.  The
    default is the advection kernel's ``name.u``, ``name.v`` and
    ``name.w``.

    A firing moves the buffers' position (:meth:`ShiftBuffer3D.advance`,
    ports booked per buffer in order) and hands on each bundle as a
    one-bundle :class:`StencilBulk`; a batched firing moves it by its
    whole run (:meth:`ShiftBuffer3D.feed_bulk`), and its bundles travel
    as one :class:`StencilBulk`.  No register shifts and no window is
    cut.  The runs hold the values the stage was fed: while each cell
    is the buffers' position (an int compare), they are runs of the
    blocks.  From the first cell that is not (only a word a fault
    dropped makes one) until :meth:`reset`, the stage keeps a copy of
    the blocks, stores each such cell's values at its feed position
    there, and cuts its runs from read-only views of the copy.  The
    Fig. 3 buffer is a delay line, so these are the windows its
    registers (:meth:`ShiftBuffer3D.feed`) would hold.
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, blocks: Sequence[np.ndarray], *,
                 buffers: Sequence[str] | None = None, tops: bool = True,
                 ii: int = 1, latency: int = 2, partitioned: bool = True,
                 tracker: MemoryPortTracker | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.tracker = tracker if tracker is not None else MemoryPortTracker(
            enforce=False
        )
        if buffers is None:
            buffers = [f"{name}.{field}" for field in ("u", "v", "w")]
        shapes = {np.shape(block) for block in blocks}
        if len(shapes) != 1 or len(next(iter(shapes))) != 3:
            raise DataflowError(
                f"shift stage {name!r}: blocks must be 3-D arrays of one "
                f"shape, got shapes {sorted(shapes)}")
        if len(blocks) != len(buffers):
            raise DataflowError(
                f"shift stage {name!r}: blocks must hold one block per "
                f"buffer ({len(buffers)}), got {len(blocks)}"
            )
        nx, ny, nz = shapes.pop()
        self.buffers = tuple(
            ShiftBuffer3D(nx, ny, nz, partitioned=partitioned,
                          tracker=self.tracker, name=buffer)
            for buffer in buffers
        )
        self.nz = nz
        self.tops = tops
        #: Bundles forwarded per interior column.
        self.per_column = nz - 1 if tops else nz - 2
        self._blocks = tuple(_read_only(np.ascontiguousarray(block,
                                                             dtype=float))
                             for block in blocks)
        #: What the runs are cut from: the blocks, or read-only views of
        #: ``_fed`` once a cell was not its feed position.
        self._source = self._blocks
        #: The values fed, in streaming layout: a copy of the blocks made
        #: at the first cell that was not its feed position.
        self._fed: tuple[np.ndarray, ...] | None = None
        #: Cycle of the first window emission — the prime/steady boundary
        #: the observability plane splits this stage's activity span at.
        #: ``None`` until the buffers first produce (and after reset).
        self.first_emit_cycle: int | None = None

    def _forwarded_stop(self, first: int, stop: int) -> int:
        """One past the last of one feed's emissions ``[first, stop)``
        the stage forwards: the feed's full window comes first, and a
        column top's second, the top one, travels only with ``tops``."""
        return stop if self.tops else min(stop, first + 1)

    def emits(self, firing: int) -> tuple[int, ...]:
        ny, nz = self.buffers[0].ny, self.nz
        first, stop = feed_emissions(*feed_position(firing, ny, nz), ny, nz)
        return (self._forwarded_stop(first, stop) - first,)

    def regime(self, firing: int) -> tuple:
        return feed_regime(*feed_position(firing, self.buffers[0].ny,
                                          self.nz))

    def regime_left(self, firing: int) -> int | None:
        stop = regime_stop(firing, self.buffers[0].ny, self.nz)
        return None if stop is None else stop - firing

    def window_run(self, start: int, stop: int) -> StencilBulk:
        """The forwarded bundles ``[start, stop)`` of the values fed,
        lazily."""
        return StencilBulk(self.buffers[0], self._source, start, stop,
                           self.per_column)

    def _store(self, fed: int, cells: slice | list[int]) -> None:
        """Store the values of ``cells`` at the feed positions from
        ``fed`` on, in the copy of the blocks, which the first call
        makes."""
        if self._fed is None:
            self._fed = tuple(block.copy() for block in self._blocks)
            self._source = tuple(_read_only(copy) for copy in self._fed)
        for copy, block in zip(self._fed, self._blocks):
            values = block.reshape(-1)[cells]
            copy.reshape(-1)[fed:fed + len(values)] = values

    def fire(self, cycle: int, inputs: Mapping[str, list]) -> Mapping[str, list]:
        (cell,) = inputs["in"]
        buffers = self.buffers
        fed = buffers[0].fed
        first, stop = buffers[0].next_emissions()
        for buffer in buffers:
            buffer.advance(1)
        if cell != fed:
            self._store(fed, slice(cell, cell + 1))
        if first == stop:
            return {}
        count = self._forwarded_stop(first, stop) - first
        if self.first_emit_cycle is None:
            self.first_emit_cycle = cycle
        index = forwarded_before(first, self.nz, self.per_column)
        run = self.window_run(index, index + count)
        return {"out": [run] if count == 1 else run.materialize()}

    def ff_inner_signature(self, cycle: int, outer: tuple) -> tuple | None:
        inner = feed_inner_regime(*feed_position(
            self.stats.fires, self.buffers[0].ny, self.nz))
        # ``outer`` is the base signature plus the outer regime: swap the
        # regime, keep the pipeline part it already built.
        return None if inner is None else outer[:2] + inner

    def ff_inner_capacity(self, want: int) -> int:
        fired = self.stats.fires
        return min(want, inner_regime_stop(fired, self.buffers[0].ny,
                                           self.nz) - fired)

    def ff_structure(self) -> tuple | None:
        buffer = self.buffers[0]
        return self._structure(buffer.nx, buffer.ny, buffer.nz,
                               buffer.partitioned, self.tops)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        cells = inputs.get("in", ListBulk([]))
        if len(cells) != count:
            raise DataflowError(
                f"shift stage {self.name!r}: batched window consumed "
                f"{len(cells)} cells for {count} firings"
            )
        buffers = self.buffers
        fed = buffers[0].fed
        # Scalar feeding books the buffers' ports in turn, one feed each;
        # a run from the block's start books each buffer's first feed
        # alone, so memories sharing a tracker start their cycle counts
        # in the same order.
        steps = ((1, count - 1) if fed == 0 and count > 1 else (count,))
        ranges = [buffer.feed_bulk(step) for step in steps
                  for buffer in buffers]
        # A run of cells that continues exactly where the buffers stood
        # is the blocks' own; any other part is stored at its feed
        # positions.
        for part in cells.parts():
            if isinstance(part, CellBlockBulk):
                if part.start != fed:
                    self._store(fed, slice(part.start, part.stop))
            else:
                items = part.materialize()
                if items != list(range(fed, fed + len(items))):
                    self._store(fed, items)
            fed += len(part)
        first, stop = (forwarded_before(emission, self.nz, self.per_column)
                       for emission in (ranges[0][0], ranges[-1][1]))
        if stop > first and self.first_emit_cycle is None:
            self.first_emit_cycle = cycle
        return _ShiftFireResult(self.window_run(first, stop))

    def reset(self) -> None:
        super().reset()
        self.first_emit_cycle = None
        self._source = self._blocks
        self._fed = None
        for buffer in self.buffers:
            buffer.reset()


class ReplicateStage(Stage):
    """Replicates each stencil bundle to the three advection stages.

    Advection of every field needs all three input fields (the paper's
    motivation for the replicate stages in Fig. 2).
    """

    input_ports = ("in",)
    output_ports = ("u", "v", "w")

    def __init__(self, name: str, *, ii: int = 1, latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)

    def fire(self, cycle: int, inputs: Mapping[str, list]) -> Mapping[str, list]:
        (bundle,) = inputs["in"]
        return {"u": [bundle], "v": [bundle], "w": [bundle]}

    def ff_structure(self) -> tuple | None:
        return self._structure()

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        bulk = inputs["in"]
        if len(bulk) != count:
            raise DataflowError(
                f"replicate {self.name!r}: batched window consumed "
                f"{len(bulk)} bundles for {count} firings"
            )
        return UniformFireResult({"u": bulk, "v": bulk, "w": bulk})


class AdvectStage(Stage):
    """Computes one field's source term per cycle from a stencil bundle.

    This stage is where the 21 double-precision operations per cycle live;
    ``latency`` models the depth of the scheduled floating-point pipeline.
    It times them and leaves the arithmetic to the write stage: a firing
    on a run of bundles (a one-bundle :class:`StencilBulk`, or a batched
    window's whole run) hands on a :class:`ResultRun` of the same
    bundles, numbered as a stream with its column tops forwards them,
    and the write stage has it call :meth:`evaluate` once per stored
    run.
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, field: str,
                 coeffs: AdvectionCoefficients, nz: int, *, ii: int = 1,
                 latency: int = 28) -> None:
        super().__init__(name, ii=ii, latency=latency)
        if field not in ("u", "v", "w"):
            raise DataflowError(f"unknown field {field!r}")
        self.field = field
        self.coeffs = coeffs
        self.nz = nz
        # Import here to avoid a cycle at package import time.
        from repro.kernel import compute
        from repro.core.flops import field_flops

        self._fn = {
            "u": compute.advect_u,
            "v": compute.advect_v,
            "w": compute.advect_w,
        }[field]
        #: Per-cell operation count of this stage, from the paper's 63/55
        #: model; the accounting lint rules cross-check these against
        #: :mod:`repro.core.flops` (AC303).
        self.flops_per_cell = field_flops(field=field)
        self.flops_per_cell_top = field_flops(top=True, field=field)

    def fire(self, cycle: int, inputs: Mapping[str, list]) -> Mapping[str, list]:
        (run,) = inputs["in"]
        return {"out": [ResultRun(self, run.blocks, run.start, run.stop)]}

    def evaluate(self, run: ResultRun, out: np.ndarray) -> None:
        """Evaluate this stage's form on the bundles ``[run.start,
        run.stop)`` of ``run.source``, the three blocks, into ``out``,
        each centre ``(cx, cy, cz)`` at ``[cx - 1, cy - 1, cz]``.

        One call per :func:`~repro.shiftbuffer.buffer3d.emission_boxes`
        box (``nz - 1`` bundles per column, tops included) for its full
        windows and one for its column-top layer, each on
        :class:`WindowRun` views.
        """
        bu, bv, bw = run.source
        for x0, x1, y0, y1, z0, z1 in emission_boxes(
                run.start, run.stop, bu.shape[1], self.nz - 1):
            # A run's ``top`` is one flag, so a box's full windows and
            # its column-top layer are two runs.
            split = min(z1, self.nz - 1)
            for top, zs in ((False, (z0, split)), (True, (split, z1))):
                if zs[1] > zs[0]:
                    u = WindowRun(bu, (x0, x1, y0, y1) + zs, top=top)
                    out[x0 - 1:x1 - 1, y0 - 1:y1 - 1, zs[0]:zs[1]] = \
                        self._fn(u, u.on(bv), u.on(bw), self.coeffs)

    def ff_structure(self) -> tuple | None:
        return self._structure(self.nz)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        bulk = inputs["in"]
        if len(bulk) != count:
            raise DataflowError(
                f"advect {self.name!r}: batched window consumed "
                f"{len(bulk)} bundles for {count} firings"
            )
        return UniformFireResult({"out": ChainBulk([
            ResultRun(self, run.blocks, run.start, run.stop)
            for run in runs_of(bulk, StencilBulk)])})


class WriteDataStage(Stage):
    """Collects result streams and writes them to "external memory".

    ``outputs`` maps each input port to its array: Fig. 2's ``su``,
    ``sv`` and ``sw``, or a generic stencil's one ``in``.  Results for
    one cell arrive on the ports in lock step; the stage consumes one
    result per port per firing and writes it at the chunk's global
    offset, through one :class:`ResultSink` per port: a run's results
    are stored and evaluated once when the run ends (:meth:`finish`).
    """

    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str, outputs: Mapping[str, np.ndarray], *,
                 x_offset: int = 0, y_offset: int = 0, ii: int = 1,
                 latency: int = 16) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.input_ports = tuple(outputs)
        self.cells_written = 0
        self._sinks = {port: ResultSink(array, x_offset, y_offset)
                       for port, array in outputs.items()}

    def fire(self, cycle: int, inputs: Mapping[str, list]) -> Mapping[str, list]:
        for port, sink in self._sinks.items():
            (item,) = inputs[port]
            sink.write(item)
        self.cells_written += 1
        return {}

    def finish(self) -> None:
        for sink in self._sinks.values():
            sink.flush()

    def ff_structure(self) -> tuple | None:
        return self._structure()

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        for port, sink in self._sinks.items():
            bulk = inputs[port]
            if len(bulk) != count:
                raise DataflowError(
                    f"write {self.name!r}: batched window consumed "
                    f"{len(bulk)} results on {port!r} for {count} firings"
                )
            sink.write_bulk(bulk)
        self.cells_written += count
        # A write firing produces nothing: it never enters the pipeline
        # (side effects land at fire time), matching the exact path.
        return ListFireResult([])

    def reset(self) -> None:
        super().reset()
        for sink in self._sinks.values():
            sink.clear()
