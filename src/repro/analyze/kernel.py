"""Static cycle bounds for the advection kernel design.

Bridges the verifier to the kernel layer: the Fig. 2 graph the engine
runs (:func:`repro.kernel.builder.build_structural_graph`) is abstract-
interpreted once per distinct chunk width, and the proved per-chunk
totals sum to a whole-invocation cycle bound.  Every number here is the
exact cycle count of the unit-rate control machine — the quantity the
engine's token twin reproduces byte for byte — so the tuner's
analytic-vs-measured error is asserted against a proof, not a
calibration.  The unit-rate reading misses one cycle per chunk: the
second bundle of the chunk's last column top, which the derived fill of
:class:`repro.kernel.cycle_model.KernelCycleModel` counts.
"""

from __future__ import annotations

from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.analyze.interp import interpret

__all__ = ["static_kernel_cycles"]


def static_kernel_cycles(config: KernelConfig, *, read_ii: int = 1,
                         grid: Grid | None = None,
                         graph: DataflowGraph | None = None) -> int:
    """Proved total cycles of one kernel invocation.

    Each chunk streams ``(nx + 2) * read_width * nz`` values through the
    pipeline and restarts it; chunks of equal width are control-identical,
    so one abstract run per distinct width covers the whole plan.

    ``graph`` is ``config``'s structural graph
    (:func:`~repro.kernel.builder.build_structural_graph` at
    ``read_ii``), when the caller already holds it: it reads only the
    stream depth, the latencies and ``read_ii``, so a caller that keeps
    one per depth need not build it again.
    """
    grid = grid or config.grid
    config = config.for_grid(grid)
    if graph is None:
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
