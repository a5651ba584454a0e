"""Closed-form cycle count for the advection kernel.

The dataflow design's whole purpose is that, in steady state, one grid
cell is consumed per cycle (II = 1).  A kernel invocation therefore costs,
per chunk, the number of values streamed in times the effective initiation
interval, plus the pipeline fill (every chunk restarts the pipeline).  The
fill is derived from the stage latencies, not fitted: the cycle-accurate
simulator measures exactly this count on small grids at every initiation
interval (asserted in the test suite), and the closed form serves the
paper-scale problem sizes where a per-cycle simulation of 10^9 cells is
pointless.

The *effective* initiation interval is the largest II of any stage in the
chain: a bandwidth-starved read stage (II 2 from DDR contention) or the
URAM variant of the shift buffer (II 2, section III-A) halves throughput,
exactly as the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grid import Grid
from repro.kernel.config import REPLICATE_LATENCY, SHIFT_LATENCY, KernelConfig

__all__ = ["CycleBreakdown", "KernelCycleModel"]

#: Cycles a run counts from the write stage's last firing on: the
#: firing's own cycle (cycles count from 0) and the idle cycle in which
#: the engine finds every stage quiescent.
_QUIESCENCE = 2

#: The last feed of a chunk is a column top, which emits two bundles:
#: the second reaches the write stage one cycle after the first.
_LAST_TOP_BUNDLE = 1


@dataclass(frozen=True)
class CycleBreakdown:
    """Cycle count of one kernel invocation, decomposed."""

    chunks: int
    feeds_total: int
    effective_ii: int
    fill_per_chunk: int

    @property
    def steady_cycles(self) -> int:
        return self.feeds_total * self.effective_ii

    @property
    def fill_cycles(self) -> int:
        return self.chunks * self.fill_per_chunk

    @property
    def total(self) -> int:
        return self.steady_cycles + self.fill_cycles

    @property
    def fill_fraction(self) -> float:
        return self.fill_cycles / self.total if self.total else 0.0


class KernelCycleModel:
    """Closed-form performance model of one kernel instance.

    Each chunk costs its feeds times the effective II plus a fill
    (:attr:`pipeline_depth`) derived from the stage latencies, not
    fitted; the total equals the cycle-accurate simulator's, and the
    static verifier's proved count
    (:func:`repro.analyze.static_kernel_cycles`), at every read and
    shift-buffer II.  It is the O(1) count for paper-scale grids, where
    a proof takes about a second per chunk width.

    Parameters
    ----------
    config:
        Kernel design parameters.
    read_ii:
        Effective initiation interval imposed by external memory on the
        read stage (>= 1).  Device models compute this from bandwidth; 1
        means memory keeps up with the pipeline.
    """

    def __init__(self, config: KernelConfig, *, read_ii: int = 1) -> None:
        if read_ii < 1:
            raise ValueError(f"read_ii must be >= 1, got {read_ii}")
        self.config = config
        self.read_ii = read_ii

    @property
    def effective_ii(self) -> int:
        return max(self.read_ii, self.config.shift_buffer_ii)

    @property
    def start_cycle(self) -> int:
        """The cycle the write stage first fires in each chunk: the first
        cell's path through the read (memory), shift-buffer, replicate
        and advect latencies (:func:`repro.analyze.start_cycles` proves
        the same number on the structural graph)."""
        c = self.config
        return (c.memory_latency + SHIFT_LATENCY + REPLICATE_LATENCY
                + c.advect_latency)

    @property
    def pipeline_depth(self) -> int:
        """Per-chunk pipeline fill/drain cost in cycles.

        A chunk of ``F`` feeds streams them ``effective_ii`` apart, so its
        last feed fires ``(F - 1) * effective_ii`` cycles after its first.
        Its result reaches the write stage :attr:`start_cycle` cycles
        later, the column top's second bundle one cycle after that, and
        the engine quiesces two cycles on.  The fill is what the chunk
        costs beyond ``F * effective_ii``: the second memory latency and
        the stream hops overlap with streaming and never appear on the
        critical path.
        """
        return (self.start_cycle + _LAST_TOP_BUNDLE + _QUIESCENCE
                - self.effective_ii)

    def breakdown(self, grid: Grid | None = None) -> CycleBreakdown:
        """Cycle count decomposition for ``grid`` (default: config grid)."""
        grid = grid or self.config.grid
        plan = self.config.for_grid(grid).chunk_plan()
        nx_buf = grid.nx + 2
        feeds_total = sum(
            nx_buf * chunk.read_width * grid.nz for chunk in plan.chunks
        )
        return CycleBreakdown(
            chunks=plan.num_chunks,
            feeds_total=feeds_total,
            effective_ii=self.effective_ii,
            fill_per_chunk=self.pipeline_depth,
        )

    def cycles(self, grid: Grid | None = None) -> int:
        """Total cycles of one kernel invocation."""
        return self.breakdown(grid).total
