"""Kernel configuration.

A :class:`KernelConfig` captures the design parameters a developer would
set when building the HLS kernel: the grid it processes, the Y chunk width
(which sizes the on-chip shift buffers), FIFO depths, and pipeline
latencies of the stages.  Device-level parameters (clock frequency, memory
system) live in :mod:`repro.hardware` — the same kernel design is placed on
different devices, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.shiftbuffer.chunking import ChunkPlan, plan_chunks

__all__ = ["KernelConfig"]

#: Default interior Y cells per chunk.  Large enough that the chunk-size
#: memory-efficiency penalty (paper: chunk <= 8 hurts) is irrelevant, small
#: enough that three shift buffers fit comfortably in BRAM.
DEFAULT_CHUNK_WIDTH: int = 64

#: Pipeline depth of one advection stage: the ~21-op double precision
#: expression tree schedules to roughly this many cycles at 300 MHz
#: (double-precision add ~5 cycles, multiply ~6, tree depth ~5 ops).
DEFAULT_ADVECT_LATENCY: int = 28

#: Latency of external memory read/write stages (burst setup + AXI depth).
DEFAULT_MEMORY_LATENCY: int = 16

#: Pipeline latencies of the shift-buffer and replicate stages, which no
#: configuration parameter sets: the graph builder wires them, and the
#: closed-form cycle model
#: (:class:`~repro.kernel.cycle_model.KernelCycleModel`) reads them.
SHIFT_LATENCY: int = 2
REPLICATE_LATENCY: int = 1


@dataclass(frozen=True)
class KernelConfig:
    """Design-time parameters of one advection kernel instance.

    Parameters
    ----------
    grid:
        The (sub)domain this kernel instance processes.
    chunk_width:
        Interior Y cells per chunk; the shift buffers hold
        ``chunk_width + 2`` Y positions.
    stream_depth:
        FIFO depth of inter-stage streams.  Must be >= 2: the shift
        buffer forwards two bundles at each column top (see
        :meth:`repro.shiftbuffer.buffer3d.ShiftBuffer3D.feed`), and the
        static verifier proves the minimal depth of its output stream
        is 2 (``repro analyze``); at depth 1 the pair never retires.
    shift_buffer_ii:
        Initiation interval of the shift-buffer stage.  1 with correctly
        partitioned BRAM; 2 models the URAM experiment of section III-A.
    advect_latency, memory_latency:
        Pipeline depths used by the cycle-accurate simulation and the
        closed-form cycle model.
    partitioned:
        Whether the shift-buffer arrays are partitioned (port-safe).
    word_bytes:
        Bytes per stored value.  8 is the paper's double precision; 4
        models the single-precision variant of the paper's future work —
        halving buffer footprints and every byte of external-memory and
        PCIe traffic (numerical accuracy of narrow datapaths is studied
        separately in :mod:`repro.precision`).
    """

    grid: Grid
    chunk_width: int = DEFAULT_CHUNK_WIDTH
    stream_depth: int = 4
    shift_buffer_ii: int = 1
    advect_latency: int = DEFAULT_ADVECT_LATENCY
    memory_latency: int = DEFAULT_MEMORY_LATENCY
    partitioned: bool = True
    word_bytes: int = 8

    def __post_init__(self) -> None:
        if self.chunk_width < 1:
            raise ConfigurationError(
                f"chunk_width must be >= 1, got {self.chunk_width}"
            )
        if self.stream_depth < 2:
            raise ConfigurationError(
                f"stream_depth must be >= 2: the shift buffer forwards two "
                f"bundles at each column top, and repro analyze proves "
                f"the minimal depth of its output stream is 2, got "
                f"{self.stream_depth}"
            )
        if self.shift_buffer_ii < 1:
            raise ConfigurationError(
                f"shift_buffer_ii must be >= 1, got {self.shift_buffer_ii}"
            )
        if self.advect_latency < 1 or self.memory_latency < 1:
            raise ConfigurationError("stage latencies must be >= 1")
        if self.word_bytes not in (2, 4, 8):
            raise ConfigurationError(
                f"word_bytes must be 2, 4 or 8, got {self.word_bytes}"
            )
        if self.grid.nz < 3:
            raise ConfigurationError(
                f"kernel needs nz >= 3 for the vertical stencil, got "
                f"{self.grid.nz}"
            )

    # -- derived geometry -------------------------------------------------------

    def chunk_plan(self) -> ChunkPlan:
        """The Y chunking this configuration implies."""
        return plan_chunks(self.grid.ny, self.chunk_width)

    @property
    def buffer_ny(self) -> int:
        """Y extent of the on-chip shift buffers (chunk + halo)."""
        return min(self.chunk_width, self.grid.ny) + 2

    @property
    def buffer_words_per_field(self) -> int:
        """On-chip RAM words per field's shift buffer."""
        return 3 * self.buffer_ny * self.grid.nz + 9 * self.grid.nz

    @property
    def buffer_words(self) -> int:
        """On-chip RAM words for all three shift buffers."""
        return 3 * self.buffer_words_per_field

    @property
    def buffer_bytes(self) -> int:
        return self.word_bytes * self.buffer_words

    @property
    def bytes_per_cell_cycle(self) -> int:
        """External memory traffic per processed cell: 3 reads + 3 writes."""
        return 6 * self.word_bytes

    @property
    def in_bytes_per_cell(self) -> int:
        """Bytes read per streamed cell (three field values)."""
        return 3 * self.word_bytes

    @property
    def out_bytes_per_cell(self) -> int:
        """Bytes written per interior cell (three source values)."""
        return 3 * self.word_bytes

    def for_grid(self, grid: Grid) -> "KernelConfig":
        """This configuration applied to a different (sub)grid."""
        return replace(self, grid=grid)
