"""The scenario suite's concrete kernels, built from existing parts.

Nothing here is a new execution engine: the advection kernel wraps
:func:`repro.kernel.simulate.simulate_kernel` (the Fig. 2 graph with
checkpoint/restart), and the diffusion and buoyancy kernels wrap
:func:`repro.kernel.generic.run_stencil_kernel` (the read -> shift ->
compute -> write machine over :class:`~repro.shiftbuffer.buffer3d.
ShiftBuffer3D` windows).  The scenario layer only *binds* those paths
to op models, structural graphs, input checks and fault specs so the
conformance harness can drive every kernel identically.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.buoyancy import (
    BUOYANCY_OPS_PER_CELL,
    BUOYANCY_OPS_PER_TOP_CELL,
    DEFAULT_FILTER_WEIGHT,
    _check_weight,
    buoyancy_reference,
)
from repro.core.coefficients import AdvectionCoefficients
from repro.core.diffusion import (
    DIFFUSION_OPS_PER_CELL,
    _check_viscosity,
    diffuse_reference,
)
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.dataflow.engine import ControlRecord, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.errors import ConfigurationError
from repro.kernel.builder import build_structural_graph
from repro.kernel.buoyancy import (
    buoyancy_boundary_from_window,
    buoyancy_from_window,
)
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.kernel.diffusion import (
    diffusion_boundary_from_window,
    diffusion_from_window,
)
from repro.kernel.generic import (
    BoundaryFn,
    InteriorFn,
    build_stencil_graph,
    run_stencil_kernel,
)
from repro.kernel.simulate import simulate_kernel
from repro.scenarios.base import OpModel, ScenarioKernel

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

__all__ = [
    "AdvectionKernel",
    "DiffusionKernel",
    "BuoyancyKernel",
]


class AdvectionKernel(ScenarioKernel):
    """The paper's PW advection kernel (Fig. 2 graph, chunked)."""

    kind = "advection"
    op_model = OpModel(63, 55)

    def __init__(self, *, chunk_width: int | None = None) -> None:
        self._chunk_width = chunk_width

    def config(self, grid: Grid) -> KernelConfig:
        if self._chunk_width is not None:
            return KernelConfig(grid=grid, chunk_width=self._chunk_width)
        return KernelConfig(grid=grid)

    def reference(self, fields: FieldSet) -> SourceSet:
        coeffs = AdvectionCoefficients.uniform(fields.grid)
        return advect_reference(fields, coeffs)

    def run(self, fields: FieldSet, *, mode: str = "exact",
            batched: bool = True,
            fault_plan: "FaultPlan | None" = None,
            record: ControlRecord | None = None,
            ) -> tuple[SourceSet, RunStats, int]:
        result = simulate_kernel(
            self.config(fields.grid), fields, mode=mode, batched=batched,
            fault_plan=fault_plan, record=record)
        return result.sources, result.aggregate_stats(), result.total_cycles

    def cycles(self, grid: Grid) -> int:
        return KernelCycleModel(self.config(grid)).cycles()

    def structural_graph(self, grid: Grid) -> DataflowGraph:
        return build_structural_graph(self.config(grid))

    def lint(self, grid: Grid):
        from repro.lint.runner import lint_kernel

        return lint_kernel(self.config(grid))

    def fault_specs(self) -> tuple:
        # A transient corrupt word inside the shift-buffer feed: the
        # chunk checkpoint/restart retries that chunk and the run ends
        # bit-identical to the fault-free golden output.
        from repro.faults.plan import FaultSpec

        return (FaultSpec("fifo", "corrupt", match="*shift_buffer*",
                          probability=0.02, count=1),)


class _StencilKernel(ScenarioKernel):
    """Shared machinery for kernels on the generic stencil machine.

    Runs each of the three wind fields through its own
    ``run_stencil_kernel`` pass (the FPGA design would instantiate one
    pipeline per field); stats merge across the three runs.  The three
    passes share one :class:`~repro.dataflow.engine.ControlRecord`, so
    the second and third replay the first.
    """

    #: Streams carry window bursts of up to three results (interior +
    #: both one-sided boundary cells at nz == 3).
    stream_depth = 4

    def window_fns(self, grid: Grid) -> tuple[InteriorFn, BoundaryFn]:
        """The ``(interior, boundary)`` window arithmetic on ``grid``."""
        raise NotImplementedError

    def _check_grid(self, grid: Grid) -> None:
        if grid.nz < 3:
            raise ConfigurationError(
                f"{self.kind} kernel needs nz >= 3 for its vertical "
                f"stencil, got {grid.nz}")

    def run(self, fields: FieldSet, *, mode: str = "exact",
            batched: bool = True,
            fault_plan: "FaultPlan | None" = None,
            record: ControlRecord | None = None,
            ) -> tuple[SourceSet, RunStats, int]:
        grid = fields.grid
        self._check_grid(grid)
        out = SourceSet.zeros(grid)
        interior, boundary = self.window_fns(grid)
        if record is None:
            record = ControlRecord()
        all_stats: list[RunStats] = []
        total_cycles = 0
        for name, target in (("u", out.su), ("v", out.sv), ("w", out.sw)):
            stats = run_stencil_kernel(
                getattr(fields, name), interior, boundary, target,
                stream_depth=self.stream_depth, mode=mode, batched=batched,
                fault_plan=fault_plan, record=record)
            all_stats.append(stats)
            total_cycles += stats.cycles
        return out, RunStats.merge(all_stats), total_cycles

    def _machine(self, grid: Grid, shape: tuple[int, int, int],
                 ) -> DataflowGraph:
        # One field pass wired on a zero block of ``shape``.  Its stages
        # declare no FLOPs: the 63/55 cross-check (AC303) is
        # advection-specific.
        interior, boundary = self.window_fns(grid)
        nx, ny, nz = shape
        graph = build_stencil_graph(
            np.zeros(shape), interior, boundary,
            np.zeros((nx - 2, ny - 2, nz)), stream_depth=self.stream_depth)
        graph.name = self.kind
        return graph

    def cycles(self, grid: Grid) -> int:
        # The three field passes are control-identical: one proof of
        # the pass over the grid's block, fed its cells, counts each.
        from repro.analyze import interpret

        self._check_grid(grid)
        return 3 * interpret(self._machine(grid, grid.halo_shape),
                             math.prod(grid.halo_shape)).cycles

    def structural_graph(self, grid: Grid) -> DataflowGraph:
        # The smallest block with a window.
        return self._machine(grid, (3, 3, 3))

    def fault_specs(self) -> tuple:
        # The generic machine has no checkpoint layer: a corrupted feed
        # word surfaces as a typed FaultError at the consuming stage.
        # The conformance fault leg asserts scalar and batched runs
        # raise the *same* error with the *same* fault trace.
        from repro.faults.plan import FaultSpec

        return (FaultSpec("fifo", "corrupt", match="read.out->shift.in",
                          probability=0.01, count=1),)


class DiffusionKernel(_StencilKernel):
    """7-point constant-viscosity diffusion (MONC's other big stencil)."""

    kind = "diffusion"
    op_model = OpModel(DIFFUSION_OPS_PER_CELL, DIFFUSION_OPS_PER_CELL)

    def __init__(self, *, nu: float = 1.0) -> None:
        _check_viscosity(nu)
        self.nu = nu

    def reference(self, fields: FieldSet) -> SourceSet:
        return diffuse_reference(fields, nu=self.nu)

    def window_fns(self, grid: Grid) -> tuple[InteriorFn, BoundaryFn]:
        return (partial(diffusion_from_window, grid=grid, nu=self.nu),
                partial(diffusion_boundary_from_window, grid=grid,
                        nu=self.nu))


class BuoyancyKernel(_StencilKernel):
    """Vertical Shapiro 1-2-1 buoyancy smoothing (cheapest stencil)."""

    kind = "buoyancy"
    op_model = OpModel(BUOYANCY_OPS_PER_CELL, BUOYANCY_OPS_PER_TOP_CELL)

    def __init__(self, *, alpha: float = DEFAULT_FILTER_WEIGHT) -> None:
        _check_weight(alpha)
        self.alpha = alpha

    def reference(self, fields: FieldSet) -> SourceSet:
        return buoyancy_reference(fields, self.alpha)

    def window_fns(self, grid: Grid) -> tuple[InteriorFn, BoundaryFn]:
        return (partial(buoyancy_from_window, alpha=self.alpha),
                partial(buoyancy_boundary_from_window, alpha=self.alpha))
