"""External memory models (HBM2, DDR4) for the accelerator boards.

The kernel streams 48 bytes per cell (three field reads, three source
writes), so the achievable cell rate is the minimum of the pipeline's
clock rate and what the memory system sustains.  Two effects matter:

* **Technology / integration efficiency** — the paper measured a single
  kernel at 77% of theoretical on HBM2 but 55% on the U280's DDR4, while
  the Intel tooling sustains 83% from DDR4 (automatic burst/prefetch
  load-store units).  These sustained per-kernel figures are the
  calibration constants.
* **Burst length** — chunking shortens the contiguous run to one chunk
  face (``chunk_width x nz`` doubles); the paper notes a penalty only for
  chunks of ~8 or below.  Modelled as ``burst / (burst + gap)`` with a
  512-byte repositioning gap, which is negligible at 4 KiB bursts and
  severe below 1 KiB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["MemorySpec", "StreamingMemoryModel"]

#: Effective bytes lost to re-positioning at each non-contiguous boundary.
BURST_GAP_BYTES: float = 512.0


@dataclass(frozen=True)
class MemorySpec:
    """One external memory space on a board.

    Parameters
    ----------
    name:
        ``"hbm2"`` or ``"ddr"`` (keys used by experiments and sessions).
    capacity_bytes:
        Total capacity; allocations beyond it must fall back to another
        space or fail (the V100's 16 GB limit at 536M cells).
    per_kernel_bandwidth:
        Sustained bytes/second one kernel's load-store paths achieve
        against this memory (calibrated to the paper's kernel-only
        measurements).
    aggregate_bandwidth:
        Sustained bytes/second the whole memory system delivers when many
        kernels share it (HBM2's many banks scale per-kernel; a two-bank
        DDR system saturates quickly).
    """

    name: str
    capacity_bytes: int
    per_kernel_bandwidth: float
    aggregate_bandwidth: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"memory {self.name!r}: capacity must be positive"
            )
        if self.per_kernel_bandwidth <= 0 or self.aggregate_bandwidth <= 0:
            raise ConfigurationError(
                f"memory {self.name!r}: bandwidths must be positive"
            )
        if self.aggregate_bandwidth < self.per_kernel_bandwidth:
            raise ConfigurationError(
                f"memory {self.name!r}: aggregate bandwidth below "
                f"per-kernel bandwidth"
            )


class StreamingMemoryModel:
    """Time model for streaming kernel traffic against one memory space."""

    def __init__(self, spec: MemorySpec) -> None:
        self.spec = spec

    # -- burst efficiency ------------------------------------------------------

    @staticmethod
    def burst_efficiency(burst_bytes: float) -> float:
        """Fraction of peak sustained at a given contiguous burst length."""
        if burst_bytes <= 0:
            raise ConfigurationError(
                f"burst length must be positive, got {burst_bytes}"
            )
        return burst_bytes / (burst_bytes + BURST_GAP_BYTES)

    @staticmethod
    def chunk_burst_bytes(chunk_width: int, nz: int, itemsize: int = 8) -> float:
        """Contiguous run produced by a Y-chunk face."""
        return float(chunk_width * nz * itemsize)

    # -- throughput -----------------------------------------------------------

    def effective_per_kernel(self, *, burst_bytes: float | None = None) -> float:
        """Sustained bytes/s available to one kernel."""
        eff = 1.0 if burst_bytes is None else self.burst_efficiency(burst_bytes)
        return self.spec.per_kernel_bandwidth * eff

    def effective_aggregate(self, num_kernels: int, *,
                            burst_bytes: float | None = None) -> float:
        """Sustained bytes/s available to ``num_kernels`` kernels together."""
        if num_kernels < 1:
            raise ConfigurationError(
                f"num_kernels must be >= 1, got {num_kernels}"
            )
        eff = 1.0 if burst_bytes is None else self.burst_efficiency(burst_bytes)
        return min(
            num_kernels * self.spec.per_kernel_bandwidth,
            self.spec.aggregate_bandwidth,
        ) * eff

    def fits(self, bytes_needed: int) -> bool:
        """True if an allocation of ``bytes_needed`` fits in this space."""
        return bytes_needed <= self.spec.capacity_bytes
