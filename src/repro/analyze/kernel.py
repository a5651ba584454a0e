"""Proved cycle counts for the advection kernel design.

Bridges the verifier to the kernel layer: each distinct chunk width's
Fig. 2 graph (:func:`repro.kernel.builder.build_chunk_graph`, the
machine the engine runs with the data left out) is abstract-interpreted
once, reading every stage's declared emission schedule — the column
tops' bundle pairs included — and the proved per-chunk totals sum to a
whole-invocation count.  It equals the engine's count, and the closed
form of :class:`repro.kernel.cycle_model.KernelCycleModel`, exactly.
"""

from __future__ import annotations

from repro.core.grid import Grid
from repro.kernel.builder import build_chunk_graph
from repro.kernel.config import KernelConfig
from repro.analyze.interp import interpret

__all__ = ["static_kernel_cycles"]


def static_kernel_cycles(config: KernelConfig, *, read_ii: int = 1) -> int:
    """Proved total cycles of one kernel invocation.

    Each chunk streams ``(nx + 2) * read_width * nz`` values through the
    pipeline and restarts it; chunks of equal width are control-identical,
    so one abstract run per distinct width, at that width's own
    geometry, covers the whole plan.
    """
    grid = config.grid
    cache: dict[int, int] = {}
    total = 0
    for chunk in config.chunk_plan().chunks:
        width = chunk.read_width
        if width not in cache:
            graph = build_chunk_graph(
                config.for_grid(Grid(grid.nx, width - 2, grid.nz)),
                read_ii=read_ii)
            cache[width] = interpret(
                graph, (grid.nx + 2) * width * grid.nz).cycles
        total += cache[width]
    return total
