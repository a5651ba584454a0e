"""Static cycle bounds for the advection kernel design.

Bridges the verifier to the kernel layer: the Fig. 2 graph the engine
runs (:func:`repro.kernel.builder.build_structural_graph`) is abstract-
interpreted once per distinct chunk width, and the proved per-chunk
totals sum to a whole-invocation cycle bound.  Unlike the fitted
closed form in :class:`repro.kernel.cycle_model.KernelCycleModel`, every
number here is the exact cycle count of the unit-rate control machine —
the quantity the engine's token twin reproduces byte for byte — so the
tuner's analytic-vs-measured error is asserted against a proof, not a
calibration.
"""

from __future__ import annotations

from repro.core.grid import Grid
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.analyze.interp import interpret

__all__ = ["static_kernel_cycles"]


def static_kernel_cycles(config: KernelConfig, *, read_ii: int = 1,
                         grid: Grid | None = None) -> int:
    """Proved total cycles of one kernel invocation.

    Each chunk streams ``(nx + 2) * read_width * nz`` values through the
    pipeline and restarts it; chunks of equal width are control-identical,
    so one abstract run per distinct width covers the whole plan.
    """
    grid = grid or config.grid
    config = config.for_grid(grid)
    graph = build_structural_graph(config, read_ii=read_ii)
    plan = config.chunk_plan()
    feeds_per_width = (grid.nx + 2) * grid.nz
    cache: dict[int, int] = {}
    total = 0
    for chunk in plan.chunks:
        width = chunk.read_width
        if width not in cache:
            cache[width] = interpret(
                graph, feeds_per_width * width).cycles
        total += cache[width]
    return total
