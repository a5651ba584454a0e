"""The dataflow stages of the advection kernel (the boxes of Fig. 2).

``read data -> shift buffer -> replicate -> advect U/V/W -> write data``

Each stage is a :class:`~repro.dataflow.stage.Stage`, so the cycle engine
gives us the machine behaviour (II, pipeline fill, backpressure) while the
functional behaviour lives in :mod:`repro.kernel.compute` and
:mod:`repro.shiftbuffer.buffer3d` — the same separation the HLS code keeps
between pragmas and arithmetic.

Each advect stage calls one window form on both paths: on one bundle's
windows when it fires scalar, and, batched, on
:class:`~repro.shiftbuffer.window.WindowRun` box views of the block,
once per :func:`~repro.shiftbuffer.buffer3d.emission_boxes` box for its
full windows and once for its column-top layer.  A batched run travels
as an emission range, and the write stage stores each box with one
slice assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

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
from repro.dataflow.stage import SourceStage, Stage
from repro.errors import ConfigurationError, DataflowError
from repro.shiftbuffer.buffer3d import (
    Box,
    ShiftBuffer3D,
    emission_boxes,
    emission_center,
    same_bits,
)
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow, WindowRun

__all__ = [
    "CellInput",
    "StencilBundle",
    "CellBlockBulk",
    "StencilBulk",
    "AdvectResultBulk",
    "MemoryArbiter",
    "ReadDataStage",
    "ShiftBufferStage",
    "ReplicateStage",
    "AdvectStage",
    "WriteDataStage",
]


@dataclass(frozen=True)
class CellInput:
    """One grid cell's worth of input data (a 3-field packed word)."""

    u: float
    v: float
    w: float


@dataclass(frozen=True)
class StencilBundle:
    """The three 27-point windows for one output cell."""

    u: StencilWindow
    v: StencilWindow
    w: StencilWindow
    center: tuple[int, int, int]


class CellBlockBulk(Bulk):
    """A run of :class:`CellInput` items backed by flat block arrays.

    ``start``/``stop`` index into the streaming order of the chunk block;
    cells are only built as objects when a FIFO leftover materialises.
    """

    def __init__(self, flats: tuple[np.ndarray, np.ndarray, np.ndarray],
                 start: int, stop: int) -> None:
        self.flats = flats
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def slice(self, start: int, stop: int) -> "CellBlockBulk":
        self._check_range(start, stop)
        return CellBlockBulk(self.flats, self.start + start,
                             self.start + stop)

    def materialize(self) -> list[CellInput]:
        u, v, w = self.flats
        return [
            CellInput(float(u[i]), float(v[i]), float(w[i]))
            for i in range(self.start, self.stop)
        ]


def _box_lanes(values: np.ndarray, start: int, ny: int,
               per_column: int) -> Iterator[tuple[Box, np.ndarray]]:
    """Each :func:`emission_boxes` box of the emissions ``[start, start +
    len(values))``, with its part of ``values`` (one entry per emission,
    in emission order) as a view of the box's shape."""
    offset = 0
    for box in emission_boxes(start, start + len(values), ny, per_column):
        x0, x1, y0, y1, z0, z1 = box
        shape = (x1 - x0, y1 - y0, z1 - z0)
        size = shape[0] * shape[1] * shape[2]
        yield box, values[offset:offset + size].reshape(shape)
        offset += size


def _bundle_at(buffers: Mapping[str, ShiftBuffer3D],
               blocks: Mapping[str, np.ndarray], index: int) -> StencilBundle:
    """The bundle of flat emission ``index``, its windows cut from the
    blocks (:meth:`ShiftBuffer3D.window_at`)."""
    wu = buffers["u"].window_at(index, blocks["u"])
    wv = buffers["v"].window_at(index, blocks["v"])
    ww = buffers["w"].window_at(index, blocks["w"])
    return StencilBundle(u=wu, v=wv, w=ww, center=wu.center)


class StencilBulk(Bulk):
    """A run of :class:`StencilBundle` emissions addressed by flat index.

    Backed by the chunk's block arrays; windows are only cut
    (:meth:`ShiftBuffer3D.window_at`) for the handful of bundles that end
    up inside FIFOs or stage pipelines when exact ticking resumes — the
    bulk of them flow straight into the batched advect compute, which
    reads them as :func:`~repro.shiftbuffer.buffer3d.emission_boxes` of
    the block.
    """

    def __init__(self, buffers: Mapping[str, ShiftBuffer3D],
                 blocks: Mapping[str, np.ndarray], start: int,
                 stop: int) -> None:
        self.buffers = dict(buffers)
        self.blocks = dict(blocks)
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def slice(self, start: int, stop: int) -> "StencilBulk":
        self._check_range(start, stop)
        return StencilBulk(self.buffers, self.blocks, self.start + start,
                           self.start + stop)

    def bundle_at(self, index: int) -> StencilBundle:
        return _bundle_at(self.buffers, self.blocks, index)

    def materialize(self) -> list[StencilBundle]:
        return [self.bundle_at(i) for i in range(self.start, self.stop)]


class AdvectResultBulk(Bulk):
    """The advect results of the emissions ``[start, start + len)``.

    ``values[i]`` belongs to flat emission ``start + i``
    (:func:`~repro.shiftbuffer.buffer3d.emission_center` over a block of
    ``ny`` by ``nz``); centres are only computed for the few results that
    :meth:`materialize` cuts.
    """

    def __init__(self, start: int, values: np.ndarray, ny: int,
                 nz: int) -> None:
        self.start = start
        self.values = values
        self.ny = ny
        self.nz = nz

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def slice(self, start: int, stop: int) -> "AdvectResultBulk":
        self._check_range(start, stop)
        return AdvectResultBulk(self.start + start, self.values[start:stop],
                                self.ny, self.nz)

    def materialize(self) -> list[tuple[tuple[int, int, int], float]]:
        cx, cy, cz, _top = emission_center(
            np.arange(self.start, self.stop), self.ny, self.nz)
        return [((x, y, z), value) for x, y, z, value in zip(
            cx.tolist(), cy.tolist(), cz.tolist(), self.values.tolist())]


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


class ReadDataStage(SourceStage):
    """Streams `CellInput` values for one chunk from "external memory".

    The memory system's sustained throughput is modelled by the ``ii``
    parameter: an external memory that can only supply a cell every other
    cycle is a read stage with II = 2 (the device model computes this from
    bandwidth; see :mod:`repro.hardware.memory`).

    Parameters
    ----------
    block:
        The three ``(nx, ny, nz)`` field blocks of the chunk, in streaming
        layout.  Cells are cut from the arrays on demand, in streaming
        order (Z fastest, then Y, then X), and batched firings
        (``fire_bulk``) hand whole runs downstream without building cell
        objects at all.
    arbiter:
        The :class:`MemoryArbiter` of a memory shared with other kernel
        replicas, or ``None`` for a memory of its own.  Each read must
        win one of the arbiter's grants; a denied read stalls the stage
        for the cycle.
    """

    def __init__(self, name: str, *, block: tuple[np.ndarray, ...],
                 ii: int = 1, latency: int = 16,
                 arbiter: MemoryArbiter | None = None) -> None:
        self._flats = tuple(
            np.ascontiguousarray(b, dtype=float).reshape(-1) for b in block
        )
        if len(self._flats) != 3:
            raise DataflowError(
                f"read stage {name!r}: block must hold the three "
                f"(u, v, w) field arrays, got {len(self._flats)}"
            )
        self._total = len(self._flats[0])
        self._cursor = 0
        self.arbiter = arbiter
        super().__init__(name, items=(), ii=ii, latency=latency)

    def _cell_at(self, index: int) -> CellInput:
        u, v, w = self._flats
        return CellInput(float(u[index]), float(v[index]), float(w[index]))

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
        item = self._cell_at(self._cursor)
        self._cursor += 1
        self.stats.fires += 1
        self._next_fire_cycle = cycle + self.ii
        self._pipeline.append(
            (cycle + self.latency, {"out": [item]}, (("out", 1),)))
        return True

    def ff_signature(self, cycle: int) -> tuple | None:
        signature = Stage.ff_signature(self, cycle) + (
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
        return UniformFireResult(
            {"out": CellBlockBulk(self._flats, start, self._cursor)})

    def ff_commit(self, old_cycle: int, new_cycle: int, *, fires: int,
                  retired: int,
                  tail_outputs: list[dict[str, list[Any]]]) -> None:
        super().ff_commit(old_cycle, new_cycle, fires=fires,
                          retired=retired, tail_outputs=tail_outputs)
        if self.arbiter is not None:
            # Every batched firing would have won one grant.
            self.arbiter.grants += fires


def _producing_index(emission: int, nz: int) -> int:
    """Index of the producing feed that emitted flat emission ``emission``.

    Producing feeds are numbered per interior column: ``nz - 2`` of them,
    the last of which (the column top) emits two windows — emissions
    ``nz - 3`` and ``nz - 2`` of its column share one feed.
    """
    column, j = divmod(emission, nz - 1)
    return column * (nz - 2) + min(j, nz - 3)


def _emission_stop_of_feed(feed: int, nz: int) -> int:
    """One past the last flat emission index of producing feed ``feed``."""
    column, j = divmod(feed, nz - 2)
    stop = column * (nz - 1) + j + 1
    if j == nz - 3:
        stop += 1  # column top: the double emission
    return stop


class _ShiftFireResult(FireBulkResult):
    """Fire-bulk result of the shift-buffer stage.

    Emissions ``[first, stop)`` map to producing feeds by closed-form
    arithmetic (column tops emit two bundles per feed); bundles are
    materialised individually only for the tail that re-enters the stage
    pipeline.
    """

    def __init__(self, bulk: StencilBulk, nz: int) -> None:
        self._bulk = bulk
        self._nz = nz
        if bulk.stop == bulk.start:
            self.producing_firings = 0
            self._first_feed = 0
        else:
            self._first_feed = _producing_index(bulk.start, nz)
            self.producing_firings = (
                _producing_index(bulk.stop - 1, nz) - self._first_feed + 1)

    def port_total(self, port: str) -> int:
        return len(self._bulk) if port == "out" else 0

    def head_bulk(self, port: str, count: int) -> Bulk:
        if count == 0:
            return ListBulk([])
        stop = min(
            _emission_stop_of_feed(self._first_feed + count - 1, self._nz),
            self._bulk.stop,
        )
        return self._bulk.slice(0, stop - self._bulk.start)

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        firings: list[dict[str, list[Any]]] = []
        for feed in range(self._first_feed + self.producing_firings - count,
                          self._first_feed + self.producing_firings):
            stop = min(_emission_stop_of_feed(feed, self._nz),
                       self._bulk.stop)
            start = max(_emission_stop_of_feed(feed - 1, self._nz)
                        if feed > 0 else 0, self._bulk.start)
            firings.append({
                "out": [self._bulk.bundle_at(e) for e in range(start, stop)]
            })
        return firings


class ShiftBufferStage(Stage):
    """Feeds the three per-field shift buffers; emits stencil bundles.

    One :class:`CellInput` is consumed per firing; zero, one, or two
    bundles are produced (two at column tops — the burst the downstream
    FIFO absorbs, see the shift-buffer docs).

    ``backing`` (the three chunk blocks in streaming layout) makes the
    blocks the stage's data store: the buffers' registers only ever hold
    values of these blocks.  A firing whose cell is, bit for bit,
    the blocks' cell at the buffers' position moves the position
    (:meth:`ShiftBuffer3D.advance`, ports booked per buffer in u, v, w
    order) and cuts its bundles from the blocks
    (:meth:`ShiftBuffer3D.window_at`): no register shifts, no window
    copies.  A batched firing moves the position by its whole run
    (:meth:`ShiftBuffer3D.feed_bulk`), and its emissions travel as a
    :class:`StencilBulk`.  The first cell that differs from the blocks
    (only a word a fault dropped makes one) switches the stage to the
    register model until :meth:`reset`: the buffers gather their
    registers once and :meth:`ShiftBuffer3D.feed` every later cell, and
    batched firings loop :meth:`fire`.  A stage built without
    ``backing`` runs the register model throughout.
    """

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, nx: int, ny: int, nz: int, *,
                 ii: int = 1, latency: int = 2, partitioned: bool = True,
                 tracker: MemoryPortTracker | None = None,
                 backing: tuple[np.ndarray, ...] | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.tracker = tracker if tracker is not None else MemoryPortTracker(
            enforce=False
        )
        self._buffers = {
            field: ShiftBuffer3D(
                nx, ny, nz, partitioned=partitioned, tracker=self.tracker,
                name=f"{name}.{field}",
            )
            for field in ("u", "v", "w")
        }
        self.nz = nz
        if backing is not None and len(backing) != 3:
            raise DataflowError(
                f"shift stage {name!r}: backing must hold the three "
                f"(u, v, w) field blocks, got {len(backing)}"
            )
        self._backing: dict[str, np.ndarray] | None = None
        self._flats: tuple[np.ndarray, ...] = ()
        if backing is not None:
            self._backing = {}
            for field, arr in zip(("u", "v", "w"), backing):
                # A read-only view: window cuts inherit the flag.
                block = np.ascontiguousarray(arr, dtype=float).view()
                block.flags.writeable = False
                self._backing[field] = block
            self._flats = tuple(self._backing[f].reshape(-1)
                                for f in ("u", "v", "w"))
        #: True once a consumed cell differed from the blocks: the
        #: register model serves the rest of the block.
        self._diverged = False
        #: Cycle of the first window emission — the prime/steady boundary
        #: the observability plane splits this stage's activity span at.
        #: ``None`` until the buffers first produce (and after reset).
        self.first_emit_cycle: int | None = None

    def _matches(self, cell: CellInput, position: int) -> bool:
        """``cell`` is, bit for bit, the blocks' cell at ``position``."""
        fu, fv, fw = self._flats
        return (position < len(fu) and same_bits(cell.u, fu.item(position))
                and same_bits(cell.v, fv.item(position))
                and same_bits(cell.w, fw.item(position)))

    def fire(self, cycle: int, inputs: Mapping[str, list]) -> Mapping[str, list]:
        (cell,) = inputs["in"]
        buffers = self._buffers
        if self._backing is not None and not self._diverged:
            u = buffers["u"]
            if self._matches(cell, u.fed):
                first, stop = u.next_emissions()
                backing = self._backing
                u.advance(1, backing["u"])
                buffers["v"].advance(1, backing["v"])
                buffers["w"].advance(1, backing["w"])
                if first == stop:
                    return {}
                bundles = [_bundle_at(buffers, backing, index)
                           for index in range(first, stop)]
                if self.first_emit_cycle is None:
                    self.first_emit_cycle = cycle
                return {"out": bundles}
            self._diverged = True
        wins_u = buffers["u"].feed(cell.u)
        wins_v = buffers["v"].feed(cell.v)
        wins_w = buffers["w"].feed(cell.w)
        if not (len(wins_u) == len(wins_v) == len(wins_w)):
            raise DataflowError(
                f"shift buffers desynchronised: emitted "
                f"{len(wins_u)}/{len(wins_v)}/{len(wins_w)} windows"
            )
        bundles = [
            StencilBundle(u=wu, v=wv, w=ww, center=wu.center)
            for wu, wv, ww in zip(wins_u, wins_v, wins_w)
        ]
        if bundles and self.first_emit_cycle is None:
            self.first_emit_cycle = cycle
        return {"out": bundles} if bundles else {}

    def ff_signature(self, cycle: int) -> tuple:
        # Emission control depends on the streaming position only, per
        # regime (ShiftBuffer3D.regime); the capacity below stops every
        # window at the end of its regime.
        return super().ff_signature(cycle) + self._buffers["u"].regime()

    def ff_fire_capacity(self, want: int) -> int:
        return self._buffers["u"].regime_feeds(want)

    def ff_inner_signature(self, cycle: int, outer: tuple) -> tuple | None:
        inner = self._buffers["u"].inner_regime()
        # ``outer`` is the base signature plus the outer regime: swap the
        # regime, keep the pipeline part it already built.
        return None if inner is None else outer[:2] + inner

    def ff_inner_capacity(self, want: int) -> int:
        return self._buffers["u"].inner_regime_feeds(want)

    def ff_structure(self) -> tuple | None:
        buffer = self._buffers["u"]
        return self._structure(buffer.nx, buffer.ny, buffer.nz,
                               buffer.partitioned)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        if self._backing is None or self._diverged:
            return super().fire_bulk(count, inputs, cycle)
        if len(inputs.get("in", ())) != count:
            raise DataflowError(
                f"shift stage {self.name!r}: batched window consumed "
                f"{len(inputs.get('in', ()))} cells for {count} firings"
            )
        # The input run must be the blocks' own cells, in streaming
        # order, continuing exactly where the buffers stand.  A cell
        # block that starts elsewhere, or a cell whose bits differ,
        # diverges: the register model takes the whole run.
        position = self._buffers["u"].fed
        for part in inputs["in"].parts():
            if isinstance(part, CellBlockBulk):
                diverged = part.start != position
            else:
                diverged = not all(
                    self._matches(cell, position + offset)
                    for offset, cell in enumerate(part.materialize()))
            if diverged:
                self._diverged = True
                return super().fire_bulk(count, inputs, cycle)
            position += len(part)
        # Scalar feeding books the three buffers' ports in turn, one feed
        # each; a run from the block's start books each buffer's first
        # feed alone, so memories sharing a tracker start their cycle
        # counts in the same order.
        steps = ((1, count - 1) if self._buffers["u"].fed == 0 and count > 1
                 else (count,))
        ranges = [self._buffers[field].feed_bulk(step, self._backing[field])
                  for step in steps for field in ("u", "v", "w")]
        first, stop = ranges[0][0], ranges[-1][1]
        if stop > first and self.first_emit_cycle is None:
            self.first_emit_cycle = cycle
        return _ShiftFireResult(
            StencilBulk(self._buffers, self._backing, first, stop), self.nz)

    def reset(self) -> None:
        super().reset()
        self.first_emit_cycle = None
        self._diverged = False
        for buffer in self._buffers.values():
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
        (bundle,) = inputs["in"]
        value = self._fn(bundle.u, bundle.v, bundle.w, self.coeffs)
        return {"out": [(bundle.center, value)]}

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
        out_parts: list[Bulk] = []
        for part in bulk.parts():
            if isinstance(part, StencilBulk):
                ny = part.buffers["u"].ny
                values = np.empty(len(part))
                for box, lanes in _box_lanes(values, part.start, ny,
                                             self.nz - 1):
                    x0, x1, y0, y1, z0, z1 = box
                    # A run's ``top`` is one flag, so a box's full
                    # windows and its column-top layer are two runs.
                    split = min(z1, self.nz - 1)
                    for top, zs in ((False, (z0, split)), (True, (split, z1))):
                        if zs[1] > zs[0]:
                            u = WindowRun(part.blocks["u"],
                                          (x0, x1, y0, y1) + zs, top=top)
                            lanes[:, :, zs[0] - z0:zs[1] - z0] = self._fn(
                                u, u.on(part.blocks["v"]),
                                u.on(part.blocks["w"]), self.coeffs)
                out_parts.append(AdvectResultBulk(part.start, values, ny,
                                                  self.nz))
            elif len(part):
                out_parts.append(ListBulk([
                    (bundle.center,
                     self._fn(bundle.u, bundle.v, bundle.w, self.coeffs))
                    for bundle in part.materialize()
                ]))
        return UniformFireResult({"out": ChainBulk(out_parts)})


class WriteDataStage(Stage):
    """Collects the three source streams and writes them to "external memory".

    Results for one cell arrive on the three ports in lock step (the
    advect stages share II and latency); the stage consumes one result per
    port per firing and scatters them into the output arrays at the
    chunk's global offset.
    """

    input_ports = ("su", "sv", "sw")
    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str, su: np.ndarray, sv: np.ndarray,
                 sw: np.ndarray, *, x_offset: int = 0, y_offset: int = 0,
                 ii: int = 1, latency: int = 16) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._arrays = {"su": su, "sv": sv, "sw": sw}
        self.x_offset = x_offset
        self.y_offset = y_offset
        self.cells_written = 0

    def fire(self, cycle: int, inputs: Mapping[str, list]) -> Mapping[str, list]:
        for port in ("su", "sv", "sw"):
            ((center, value),) = inputs[port]
            cx, cy, cz = center
            self._arrays[port][
                cx - 1 + self.x_offset, cy - 1 + self.y_offset, cz
            ] = value
        self.cells_written += 1
        return {}

    def ff_structure(self) -> tuple | None:
        return self._structure()

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        for port in ("su", "sv", "sw"):
            bulk = inputs[port]
            if len(bulk) != count:
                raise DataflowError(
                    f"write {self.name!r}: batched window consumed "
                    f"{len(bulk)} results on {port!r} for {count} firings"
                )
            array = self._arrays[port]
            for part in bulk.parts():
                if isinstance(part, AdvectResultBulk):
                    for (x0, x1, y0, y1, z0, z1), lanes in _box_lanes(
                            part.values, part.start, part.ny, part.nz - 1):
                        array[x0 - 1 + self.x_offset:x1 - 1 + self.x_offset,
                              y0 - 1 + self.y_offset:y1 - 1 + self.y_offset,
                              z0:z1] = lanes
                elif len(part):
                    for (cx, cy, cz), value in part.materialize():
                        array[cx - 1 + self.x_offset,
                              cy - 1 + self.y_offset, cz] = value
        self.cells_written += count
        # A write firing produces nothing: it never enters the pipeline
        # (side effects land at fire time), matching the exact path.
        return ListFireResult([])
