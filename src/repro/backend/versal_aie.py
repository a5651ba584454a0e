"""The Versal AI-engine array backend (the paper's §V outlook, realised).

Brown's follow-on Versal paper maps the PW advection kernel onto the
AI-engine array of a VC1902: VLIW vector cores clocked at ~1 GHz, eight
single-precision FLOPs per cycle each, fed by PLIO streams from the
reconfigurable fabric and double-buffered through memory tiles.  There
is no II=1 shift buffer here — the machine is *feed-bound*: the paper's
prediction that "keeping the engines fed with data will be the key" is
exactly what this backend's cost model and ``BK`` lint family encode.

The model
---------
The array is organised as *tile columns*.  Each active column receives
the three wind fields over ``STREAMS_PER_COLUMN`` PLIO streams (4 bytes
per stream per cycle), holds a working set of grid columns in its
memory tile (single- or double-buffered), and retires cells at the
lesser of its feed rate and its vector compute rate:

* feed:     ``streams x 4 B/cycle / 12 B/cell`` -> 1 cell/cycle/column
* compute:  ``engines/column x lanes / (avg ops per cell)`` cells/cycle

Double buffering overlaps load and compute (``min``); single buffering
serialises them (harmonic sum).  The whole-device numbers reproduce the
:class:`~repro.backend.AIEngineProjection` roofline exactly —
the projection is folded into :meth:`VersalAieBackend.roofline` as a
consistency cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Iterator

from repro.backend import VERSAL_VC1902, AIEngineProjection
from repro.backend.base import Backend, register_backend
from repro.backend.space import AxisSpace
from repro.constants import average_ops_per_cycle
from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.errors import BackendError, ConfigurationError, TuneError
from repro.lint.diagnostics import LintReport
from repro.lint.registry import LintContext
from repro.lint.runner import run_lint
from repro.lint.spec import SpecStage
from repro.tune.cost import ROUND_DIGITS, Evaluation

__all__ = [
    "AIEngineProjection",
    "VERSAL_VC1902",
    "VersalDevice",
    "VERSAL_VC1902_DEVICE",
    "VersalPoint",
    "VersalSpace",
    "VersalDeployment",
    "VersalCostModel",
    "VersalAieBackend",
    "VERSAL_AIE",
    "build_versal_graph",
]

#: Single-precision bytes per value on the AI-engine datapath.
WORD_BYTES: int = 4

#: Wind fields streamed into the array per cell.
FIELDS: int = 3

#: PLIO streams feeding one tile column (one per wind field).
STREAMS_PER_COLUMN: int = 3

#: Bytes of input per grid cell (three float32 wind samples).
BYTES_PER_CELL: int = FIELDS * WORD_BYTES

#: Grid columns a tile keeps resident per vector lane (the stencil needs
#: the current column plus west/centre/east neighbours in flight).
COLUMNS_HELD: int = 4

#: Host link for end-to-end pricing (PCIe gen3 x16 effective).
HOST_LINK_BYTES_PER_SECOND: float = 16e9

#: Host-side invocation setup (driver call, PLIO DMA descriptors).
SETUP_SECONDS: float = 40e-6

_BUFFERINGS: tuple[str, ...] = ("single", "double")


def _rounded(value: float) -> float:
    return round(float(value), ROUND_DIGITS)


@dataclass(frozen=True)
class VersalDevice:
    """One AI-engine array device (geometry, clocks, feeds, power)."""

    name: str
    columns: int
    rows: int
    clock_ghz: float
    vector_lanes_max: int
    plio_streams: int
    plio_bytes_per_cycle: int
    tile_local_bytes: int
    tile_neighbour_bytes: int
    static_watts: float
    engine_watts: float
    stream_watts: float

    #: Device family tag (parallels ``FPGADevice.family``).
    family: str = "versal"

    @property
    def engines(self) -> int:
        return self.columns * self.rows

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def fabric_feed_bandwidth(self) -> float:
        """Bytes/s every PLIO stream together can push into the array."""
        return self.plio_streams * self.plio_bytes_per_cycle * self.clock_hz

    @property
    def tile_usable_bytes(self) -> int:
        """Working-set budget: local tile plus one borrowed neighbour."""
        return self.tile_local_bytes + self.tile_neighbour_bytes

    def projection(self) -> AIEngineProjection:
        """The §V roofline this device's geometry implies."""
        return AIEngineProjection(
            name=f"{self.name} (projection)",
            engines=self.engines,
            clock_ghz=self.clock_ghz,
            flops_per_engine_cycle=self.vector_lanes_max,
            fabric_feed_bandwidth=self.fabric_feed_bandwidth,
        )


#: The VC1902 the paper's §V describes: 400 engines (50 columns x 8
#: rows) at 1 GHz, 8 SP FLOPs/cycle, 150 PLIO streams of 4 B/cycle
#: (600 GB/s aggregate feed), 32 KB local + 32 KB neighbour tile memory.
VERSAL_VC1902_DEVICE = VersalDevice(
    name="Xilinx Versal VC1902",
    columns=50,
    rows=8,
    clock_ghz=1.0,
    vector_lanes_max=8,
    plio_streams=150,
    plio_bytes_per_cycle=4,
    tile_local_bytes=32768,
    tile_neighbour_bytes=32768,
    static_watts=45.0,
    engine_watts=0.12,
    stream_watts=0.02,
)

_CATALOG: dict[str, VersalDevice] = {
    "vc1902": VERSAL_VC1902_DEVICE,
    "versal": VERSAL_VC1902_DEVICE,
}


@dataclass(frozen=True, order=True)
class VersalPoint:
    """One candidate AI-engine deployment (hashable, totally ordered)."""

    tile_columns: int
    engines_per_column: int
    vector_lanes: int
    buffering: str

    def __post_init__(self) -> None:
        if self.buffering not in _BUFFERINGS:
            raise TuneError(
                f"unknown buffering {self.buffering!r}; known: "
                f"{sorted(_BUFFERINGS)}"
            )

    @property
    def num_kernels(self) -> int:
        """Replica count analogue: active tile columns (sort-key/CLI)."""
        return self.tile_columns

    @property
    def engines(self) -> int:
        return self.tile_columns * self.engines_per_column

    @property
    def double_buffered(self) -> bool:
        return self.buffering == "double"

    def clock_mhz(self, device: VersalDevice) -> float:
        """AI engines close timing at the array clock regardless of
        replication — unlike the FPGA fabric's degradation model."""
        return device.clock_ghz * 1e3

    def key(self) -> str:
        return (
            f"tc{self.tile_columns}-ec{self.engines_per_column}"
            f"-vl{self.vector_lanes}-{self.buffering}"
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class VersalSpace(AxisSpace):
    """Tuner axes: tile columns x engines/column x lanes x buffering."""

    tile_columns: tuple[int, ...]
    engines_per_column: tuple[int, ...]
    vector_lanes: tuple[int, ...]
    buffering: tuple[str, ...]

    def __post_init__(self) -> None:
        self.validate_axes()

    def axes(self) -> dict[str, tuple]:
        return {
            "tile_columns": self.tile_columns,
            "engines_per_column": self.engines_per_column,
            "vector_lanes": self.vector_lanes,
            "buffering": self.buffering,
        }

    def _make_point(self, **values: object) -> VersalPoint:
        return VersalPoint(**values)  # type: ignore[arg-type]

    @classmethod
    def derive(cls, device: VersalDevice, grid: Grid) -> "VersalSpace":
        """Per-device axes (``grid`` only gates nothing today — tile
        memory fit is the lint gate's job, so infeasible corners stay
        visible to the search as rejections, mirroring the FPGA space).
        """
        del grid
        columns = tuple(
            c for c in (1, 2, 4, 5, 10, 20, 25, 40, 50)
            if c <= device.columns
        )
        engines = tuple(
            e for e in (1, 2, 4, 8) if e <= device.rows
        )
        lanes = tuple(
            v for v in (2, 4, 8) if v <= device.vector_lanes_max
        )
        return cls(
            tile_columns=columns,
            engines_per_column=engines,
            vector_lanes=lanes,
            buffering=_BUFFERINGS,
        )


@dataclass(frozen=True)
class VersalDeployment:
    """A (device, point, grid) triple the ``BK`` lint family inspects."""

    device: VersalDevice
    point: VersalPoint
    grid: Grid

    @property
    def streams_needed(self) -> int:
        return STREAMS_PER_COLUMN * self.point.tile_columns

    @property
    def buffers(self) -> int:
        return 2 if self.point.double_buffered else 1

    @property
    def tile_bytes_needed(self) -> int:
        """Memory-tile working set: buffered wind fields for the columns
        each vector lane keeps in flight."""
        return (self.buffers * FIELDS * WORD_BYTES * self.grid.nz
                * COLUMNS_HELD * self.point.vector_lanes)

    def to_dict(self) -> dict:
        return {
            "device": self.device.name,
            "point": self.point.to_dict(),
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny,
                     "nz": self.grid.nz},
            "streams_needed": self.streams_needed,
            "tile_bytes_needed": self.tile_bytes_needed,
            "tile_usable_bytes": self.device.tile_usable_bytes,
        }


def build_versal_graph(grid: Grid, point: VersalPoint, *,
                       name: str = "versal-aie") -> DataflowGraph:
    """One representative tile column as a dataflow graph.

    ``plio_{u,v,w} -> mem_tile_in -> engine_1..engine_N -> mem_tile_out
    -> noc_out``: the PLIO feeds land in the input memory tile, the
    column's engines form a chain over the streaming interconnect, and
    results drain through the output memory tile to the NoC.  Stages
    declare no per-cell FLOPs (the AC family's 63/55 cross-check is an
    FPGA-graph concern); depths model the 4-deep stream switches.
    """
    graph = DataflowGraph(name)
    depth = 4
    mem_in = graph.add(SpecStage(
        "mem_tile_in", inputs=("u", "v", "w"), outputs=("out",),
        latency=2,
    ))
    for field_name in ("u", "v", "w"):
        plio = graph.add(SpecStage(
            f"plio_{field_name}", outputs=("out",), latency=1,
        ))
        graph.connect(plio, "out", mem_in, field_name, depth=depth)
    upstream, upstream_port = mem_in, "out"
    for index in range(point.engines_per_column):
        engine = graph.add(SpecStage(
            f"engine_{index + 1}", inputs=("in",), outputs=("out",),
            latency=8,
        ))
        graph.connect(upstream, upstream_port, engine, "in", depth=depth)
        upstream, upstream_port = engine, "out"
    mem_out = graph.add(SpecStage(
        "mem_tile_out", inputs=("in",), outputs=("out",), latency=2,
    ))
    graph.connect(upstream, upstream_port, mem_out, "in", depth=depth)
    sink = graph.add(SpecStage("noc_out", inputs=("in",)))
    graph.connect(mem_out, "out", sink, "in", depth=depth)
    return graph


class VersalCostModel:
    """Lint-gated analytic pricing of Versal points on one device."""

    def __init__(self, device: VersalDevice, grid: Grid, *,
                 flops_scale: float = 1.0) -> None:
        if not flops_scale > 0:
            raise TuneError(f"flops_scale must be > 0, got {flops_scale}")
        self.device = device
        self.grid = grid
        self.flops_scale = flops_scale
        #: Average operations per cell over a grid column, re-scaled for
        #: scenario kernels exactly as the FPGA cost model does.
        self.ops_per_cell = average_ops_per_cycle(grid.nz) * flops_scale
        self._flops = round(grid.num_cells * self.ops_per_cell)

    # -- feasibility ---------------------------------------------------

    def deployment(self, point: VersalPoint) -> VersalDeployment:
        return VersalDeployment(device=self.device, point=point,
                                grid=self.grid)

    def lint_gate(self, point: VersalPoint) -> tuple[str, ...]:
        """Error codes the ``BK`` family raises for this point."""
        report = run_lint(
            LintContext(backend_deployment=self.deployment(point)),
            subject=f"{self.device.name}:{point.key()}",
        )
        return tuple(sorted({d.code for d in report.errors}))

    # -- rates ---------------------------------------------------------

    def column_feed_cells_per_second(self) -> float:
        """Cells/s one tile column's PLIO streams can deliver."""
        return (STREAMS_PER_COLUMN * self.device.plio_bytes_per_cycle
                * self.device.clock_hz / BYTES_PER_CELL)

    def column_compute_cells_per_second(self, point: VersalPoint) -> float:
        """Cells/s one column's engines retire if feed were free."""
        flops_per_cycle = point.engines_per_column * point.vector_lanes
        return flops_per_cycle * self.device.clock_hz / self.ops_per_cell

    def cells_per_second(self, point: VersalPoint) -> float:
        feed = self.column_feed_cells_per_second()
        compute = self.column_compute_cells_per_second(point)
        if point.double_buffered:
            # Memory-tile ping-pong overlaps load with compute.
            column = min(feed, compute)
        else:
            # Single buffer serialises the phases (harmonic sum).
            column = 1.0 / (1.0 / feed + 1.0 / compute)
        return point.tile_columns * column

    def feed_bound(self, point: VersalPoint) -> bool:
        return (self.column_compute_cells_per_second(point)
                >= self.column_feed_cells_per_second())

    # -- pricing -------------------------------------------------------

    def evaluate(self, point: VersalPoint) -> Evaluation:
        codes = self.lint_gate(point)
        if codes:
            return Evaluation(
                point=point, feasible=False, reject_codes=codes,
                reject_reason=f"rejected by lint gate ({', '.join(codes)})",
            )
        cells_per_second = self.cells_per_second(point)
        kernel_seconds = self.grid.num_cells / cells_per_second
        # Three float32 wind fields in, three source fields out.
        host_bytes = 2 * FIELDS * WORD_BYTES * self.grid.num_cells
        transfer_seconds = host_bytes / HOST_LINK_BYTES_PER_SECOND
        runtime_seconds = (max(kernel_seconds, transfer_seconds)
                           + SETUP_SECONDS)
        flops = self.grid.num_cells * self.ops_per_cell
        deployment = self.deployment(point)
        by_axis = {
            "engines": point.engines / self.device.engines,
            "plio": deployment.streams_needed / self.device.plio_streams,
            "tile_memory": (deployment.tile_bytes_needed
                            / self.device.tile_usable_bytes),
        }
        watts = (self.device.static_watts
                 + self.device.engine_watts * point.engines
                 + self.device.stream_watts * deployment.streams_needed)
        end_to_end = flops / runtime_seconds / 1e9
        return Evaluation(
            point=point,
            feasible=True,
            kernel_gflops=cells_per_second * self.ops_per_cell / 1e9,
            end_to_end_gflops=end_to_end,
            gflops_per_watt=end_to_end / watts,
            kernel_seconds=kernel_seconds,
            runtime_seconds=runtime_seconds,
            transfer_seconds=transfer_seconds,
            watts=watts,
            utilisation=max(by_axis.values()),
            utilisation_by_axis=by_axis,
            clock_mhz=point.clock_mhz(self.device),
            memory_bound=self.feed_bound(point),
            analytic_cycles=math.ceil(kernel_seconds * self.device.clock_hz),
        )

    def describe(self) -> dict[str, Any]:
        """Context block for reports, with the projection cross-check."""
        projection = self.device.projection()
        peak = self.peak_attainable_gflops()
        projected = (projection.attainable_gflops(self.grid.nz)
                     * self.flops_scale)
        return {
            "device": self.device.name,
            "family": self.device.family,
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny,
                     "nz": self.grid.nz},
            "cells": self.grid.num_cells,
            "flops": self._flops,
            "flops_scale": self.flops_scale,
            "ops_per_cell": _rounded(self.ops_per_cell),
            "projection_attainable_gflops": _rounded(projected),
            "model_attainable_gflops": _rounded(peak),
            "projection_consistent": (
                abs(peak - projected) <= 1e-6 * max(peak, projected)
            ),
        }

    def peak_attainable_gflops(self) -> float:
        """The model's whole-device ceiling (every column, full vectors,
        double buffering) — must equal the §V projection's roofline."""
        peak_point = VersalPoint(
            tile_columns=self.device.columns,
            engines_per_column=self.device.rows,
            vector_lanes=self.device.vector_lanes_max,
            buffering="double",
        )
        return (self.cells_per_second(peak_point)
                * self.ops_per_cell / 1e9)


class VersalAieBackend(Backend):
    """Versal ACAP AI-engine array (VC1902)."""

    id = "versal_aie"
    title = "Versal AI-engine array (VC1902)"
    default_device = "vc1902"

    def device_names(self) -> tuple[str, ...]:
        return tuple(sorted(_CATALOG))

    def resolve_device(self, name: "str | VersalDevice | None" = None
                       ) -> VersalDevice:
        if isinstance(name, VersalDevice):
            return name
        wanted = (name or self.default_device).lower()
        try:
            return _CATALOG[wanted]
        except KeyError:
            raise BackendError(
                f"unknown Versal device {name!r}; known: "
                f"{', '.join(sorted(_CATALOG))}"
            ) from None

    def parameter_space(self, device: Any, grid: Grid, *,
                        wide_precision: bool = False) -> VersalSpace:
        # The AI-engine datapath is single precision by construction;
        # there is no reduced-precision axis to open.
        del wide_precision
        return VersalSpace.derive(device, grid)

    def cost_model(self, device: Any, grid: Grid, *,
                   flops_scale: float = 1.0) -> VersalCostModel:
        return VersalCostModel(device, grid, flops_scale=flops_scale)

    def point_from_dict(self, data: dict) -> VersalPoint:
        return VersalPoint(**data)

    def canonical_point(self, device: VersalDevice, *,
                        tile_columns: int | None = None) -> VersalPoint:
        """The deployment linted/lowered when the caller picks none."""
        return VersalPoint(
            tile_columns=(device.columns if tile_columns is None
                          else tile_columns),
            engines_per_column=device.rows,
            vector_lanes=device.vector_lanes_max,
            buffering="double",
        )

    def structural_graph(self, grid: Grid, *, point: Any | None = None,
                         read_ii: int = 1) -> DataflowGraph:
        # PLIO feeds are fixed-rate, so read_ii is checked but unused.
        if read_ii < 1:
            raise ConfigurationError(f"read_ii must be >= 1, got {read_ii}")
        device = self.resolve_device()
        resolved = point if point is not None else self.canonical_point(device)
        return build_versal_graph(grid, resolved)

    def lint(self, grid: Grid, *, device: Any | None = None,
             num_kernels: int | None = None, select: Any = None,
             ignore: Any = None, subject: str = "") -> LintReport:
        resolved = self.resolve_device(device)
        point = self.canonical_point(resolved, tile_columns=num_kernels)
        deployment = VersalDeployment(device=resolved, point=point,
                                      grid=grid)
        return run_lint(
            LintContext(backend_deployment=deployment),
            select=select, ignore=ignore,
            subject=subject or f"{resolved.name}:{point.key()}",
        )

    def roofline(self, column_height: int = 64) -> dict:
        """Backend roofline with the §V projection folded in as a
        consistency cross-check (the two must agree exactly)."""
        device = self.resolve_device()
        projection = device.projection()
        model = VersalCostModel(device, Grid(64, 64, column_height))
        attainable = model.peak_attainable_gflops()
        projected = projection.attainable_gflops(column_height)
        return {
            "backend": self.id,
            "device": device.name,
            "column_height": column_height,
            "engines": device.engines,
            "clock_mhz": device.clock_ghz * 1e3,
            "ops_per_cell": average_ops_per_cycle(column_height),
            "cells_per_second": model.cells_per_second(
                self.canonical_point(device)),
            "attainable_gflops": attainable,
            "compute_peak_gflops": projection.compute_peak_gflops,
            "projection_attainable_gflops": projected,
            "projection_consistent": (
                abs(attainable - projected)
                <= 1e-6 * max(attainable, projected)
            ),
            "feed_bound": projection.feed_bound,
        }

    def scenario_candidates(self, device: Any,
                            grid: Grid) -> Iterator[VersalPoint]:
        space = VersalSpace.derive(device, grid)
        columns = space.tile_columns[-1]
        engines = space.engines_per_column[-1]
        for buffering in ("double", "single"):
            for lanes in reversed(space.vector_lanes):
                yield VersalPoint(
                    tile_columns=columns, engines_per_column=engines,
                    vector_lanes=lanes, buffering=buffering,
                )


VERSAL_AIE = register_backend(VersalAieBackend())
