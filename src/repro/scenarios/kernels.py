"""The scenario suite's concrete kernels, built from existing parts.

Nothing here is a new execution engine: the advection kernel wraps
:func:`repro.kernel.simulate.simulate_kernel` (the Fig. 2 graph with
checkpoint/restart), and the diffusion and buoyancy kernels wrap
:func:`repro.kernel.generic.run_stencil_kernel` (the read -> shift ->
compute -> write machine over :class:`~repro.shiftbuffer.general.
GeneralShiftBuffer` windows).  The scenario layer only *binds* those
paths to op models, structural graphs, and fault specs so the
conformance harness can drive every kernel identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.buoyancy import (
    BUOYANCY_OPS_PER_CELL,
    BUOYANCY_OPS_PER_TOP_CELL,
    DEFAULT_FILTER_WEIGHT,
    buoyancy_reference,
)
from repro.core.coefficients import AdvectionCoefficients
from repro.core.diffusion import DIFFUSION_OPS_PER_CELL, diffuse_reference
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.dataflow.engine import RunStats
from repro.dataflow.graph import DataflowGraph
from repro.kernel.buoyancy import (
    buoyancy_boundary_from_window,
    buoyancy_from_window,
)
from repro.kernel.config import KernelConfig
from repro.kernel.diffusion import (
    diffusion_boundary_from_window,
    diffusion_from_window,
)
from repro.kernel.generic import run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.lint.spec import SpecStage
from repro.scenarios.base import OpModel, ScenarioKernel

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.shiftbuffer.general import GeneralWindow

__all__ = [
    "AdvectionKernel",
    "DiffusionKernel",
    "BuoyancyKernel",
    "build_stencil_structural_graph",
]

#: A per-window result list, as run_stencil_kernel consumes.
_WindowFn = Callable[["GeneralWindow"],
                     Sequence[tuple[tuple[int, int, int], float]]]


def build_stencil_structural_graph(grid: Grid, *, name: str,
                                   stream_depth: int = 4) -> DataflowGraph:
    """The generic stencil machine's topology, data-free.

    Mirrors :func:`repro.kernel.generic.run_stencil_kernel` stage for
    stage and stream for stream — same names, same ports, same depths —
    so lint's graph family and the static analyzer see exactly the
    shape the simulator runs.  No per-stage FLOP declarations: the
    63/55 accounting cross-check (AC303) is advection-specific.
    """
    graph = DataflowGraph(name)
    read = graph.add(SpecStage("read", outputs=("out",), ii=1, latency=2))
    shift = graph.add(SpecStage("shift", inputs=("in",), outputs=("out",),
                                ii=1, latency=2))
    compute = graph.add(SpecStage("compute", inputs=("in",),
                                  outputs=("out",), ii=1, latency=8))
    write = graph.add(SpecStage("write", inputs=("in",), latency=4))
    graph.connect(read, "out", shift, "in", depth=stream_depth)
    graph.connect(shift, "out", compute, "in", depth=stream_depth)
    graph.connect(compute, "out", write, "in", depth=stream_depth)
    return graph


class AdvectionKernel(ScenarioKernel):
    """The paper's PW advection kernel (Fig. 2 graph, chunked)."""

    kind = "advection"
    op_model = OpModel(63, 55)
    #: The Fig. 2 stages are unit-rate with closed-form signatures, so
    #: the steady-state periodicity proof holds and batched windows run.
    batch_admissible = True

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
            ) -> tuple[SourceSet, RunStats, int]:
        result = simulate_kernel(
            self.config(fields.grid), fields, mode=mode, batched=batched,
            fault_plan=fault_plan)
        return result.sources, result.aggregate_stats(), result.total_cycles

    def structural_graph(self, grid: Grid) -> DataflowGraph:
        from repro.lint.builders import build_structural_graph

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
    """Shared machinery for kernels on the general stencil machine.

    Runs each of the three wind fields through its own
    ``run_stencil_kernel`` pass (the FPGA design would instantiate one
    pipeline per field); stats merge across the three runs.  Both
    stages of that machine are data-dependent (``unit_rate = False``,
    no ``ff_signature``), so batched windows fall back to the scalar loop
    by design — the conformance harness asserts the fallback is recorded
    rather than pretending a speedup exists.
    """

    batch_admissible = False
    #: Streams carry window bursts of up to three results (interior +
    #: both one-sided boundary cells at nz == 3).
    stream_depth = 4

    def window_fn(self, grid: Grid) -> _WindowFn:
        raise NotImplementedError

    def run(self, fields: FieldSet, *, mode: str = "exact",
            batched: bool = True,
            fault_plan: "FaultPlan | None" = None,
            ) -> tuple[SourceSet, RunStats, int]:
        grid = fields.grid
        out = SourceSet.zeros(grid)
        fn = self.window_fn(grid)
        all_stats: list[RunStats] = []
        total_cycles = 0
        for name, target in (("u", out.su), ("v", out.sv), ("w", out.sw)):
            stats = run_stencil_kernel(
                getattr(fields, name), fn, target,
                stream_depth=self.stream_depth, mode=mode, batched=batched,
                fault_plan=fault_plan)
            all_stats.append(stats)
            total_cycles += stats.cycles
        return out, RunStats.merge(all_stats), total_cycles

    def structural_graph(self, grid: Grid) -> DataflowGraph:
        return build_stencil_structural_graph(
            grid, name=self.kind, stream_depth=self.stream_depth)

    def fault_specs(self) -> tuple:
        # The generic machine has no checkpoint layer: a corrupted feed
        # word surfaces as a typed FaultError at the consuming stage.
        # The conformance fault leg asserts scalar and batched runs
        # raise the *same* error with the *same* fault trace.
        from repro.faults.plan import FaultSpec

        return (FaultSpec("fifo", "corrupt", match="read.out->shift.in",
                          probability=0.01, count=1),)


def _with_boundaries(center: tuple[int, int, int], nz: int,
                     interior: float, bottom: Callable[[], float],
                     top: Callable[[], float],
                     ) -> list[tuple[tuple[int, int, int], float]]:
    """Assemble one window's burst: interior cell plus boundary cells."""
    cx, cy, cz = center
    results = [((cx, cy, cz), interior)]
    if cz == 1:
        results.append(((cx, cy, 0), bottom()))
    if cz == nz - 2:
        results.append(((cx, cy, nz - 1), top()))
    return results


class DiffusionKernel(_StencilKernel):
    """7-point constant-viscosity diffusion (MONC's other big stencil)."""

    kind = "diffusion"
    op_model = OpModel(DIFFUSION_OPS_PER_CELL, DIFFUSION_OPS_PER_CELL)

    def __init__(self, *, nu: float = 1.0) -> None:
        self.nu = nu

    def reference(self, fields: FieldSet) -> SourceSet:
        return diffuse_reference(fields, nu=self.nu)

    def window_fn(self, grid: Grid) -> _WindowFn:
        nu = self.nu

        def fn(window: "GeneralWindow"):
            return _with_boundaries(
                window.center, grid.nz,
                diffusion_from_window(window, grid, nu),
                lambda: diffusion_boundary_from_window(
                    window, grid, nu, top=False),
                lambda: diffusion_boundary_from_window(
                    window, grid, nu, top=True),
            )

        return fn


class BuoyancyKernel(_StencilKernel):
    """Vertical Shapiro 1-2-1 buoyancy smoothing (cheapest stencil)."""

    kind = "buoyancy"
    op_model = OpModel(BUOYANCY_OPS_PER_CELL, BUOYANCY_OPS_PER_TOP_CELL)

    def __init__(self, *, alpha: float = DEFAULT_FILTER_WEIGHT) -> None:
        self.alpha = alpha

    def reference(self, fields: FieldSet) -> SourceSet:
        return buoyancy_reference(fields, self.alpha)

    def window_fn(self, grid: Grid) -> _WindowFn:
        alpha = self.alpha

        def fn(window: "GeneralWindow"):
            return _with_boundaries(
                window.center, grid.nz,
                buoyancy_from_window(window, alpha),
                lambda: buoyancy_boundary_from_window(
                    window, alpha, top=False),
                lambda: buoyancy_boundary_from_window(
                    window, alpha, top=True),
            )

        return fn
