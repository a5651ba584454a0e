"""The FPGA accelerator card model.

:class:`FPGADevice` composes the fabric capacity, clock behaviour, memory
systems, PCIe link, and power model of one board, and answers the
questions the experiments ask:

* how many kernel replicas fit (Section IV: 6 on the U280, 5 on the
  Stratix 10),
* which memory space a problem should use (prefer HBM2 while the data
  fits — Table II's policy),
* how long a kernel invocation takes (the roofline of pipeline cycles
  versus memory streaming), and
* what the board draws while doing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.flops import grid_flops
from repro.core.grid import Grid, GridDecomposition
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.clock import ClockModel
from repro.hardware.memory import StreamingMemoryModel
from repro.hardware.pcie import PCIeLink
from repro.hardware.power import PowerModel
from repro.hardware.resources import ResourceVector, estimate_kernel_resources, fit_kernels
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel

__all__ = ["FPGADevice", "InvocationEstimate"]


@dataclass(frozen=True)
class InvocationEstimate:
    """Timing decomposition of one kernel invocation on a device."""

    seconds: float
    #: Pipeline cycles of the slowest replica (the widest X part).
    cycles: int
    compute_seconds: float
    memory_seconds: float
    num_kernels: int
    memory: str
    clock_hz: float

    @property
    def memory_bound(self) -> bool:
        return self.memory_seconds > self.compute_seconds

    def gflops(self, grid: Grid) -> float:
        """Kernel-only GFLOPS for ``grid`` (paper convention)."""
        return grid_flops(grid) / self.seconds / 1e9


@dataclass(frozen=True)
class FPGADevice:
    """One accelerator card."""

    name: str
    family: str  # "xilinx" | "intel"
    capacity: ResourceVector
    shell: ResourceVector
    memories: dict[str, StreamingMemoryModel]
    pcie: PCIeLink
    clock: ClockModel
    power: PowerModel
    #: Preference order for placing data (first space it fits in wins).
    memory_preference: tuple[str, ...] = field(default=("hbm2", "ddr"))
    #: Fixed per-invocation cost (kernel launch, runtime enqueue); this is
    #: why small problems undershoot in Table II.
    launch_overhead_s: float = 4e-4

    def __post_init__(self) -> None:
        if self.family not in ("xilinx", "intel"):
            raise ConfigurationError(f"unknown FPGA family {self.family!r}")
        for name in self.memory_preference:
            if name not in self.memories and name != "hbm2":
                raise ConfigurationError(
                    f"memory preference {name!r} not among memories "
                    f"{sorted(self.memories)}"
                )

    # -- placement -------------------------------------------------------------

    def kernel_resources(self, config: KernelConfig) -> ResourceVector:
        return estimate_kernel_resources(config, self.family)

    def max_kernels(self, config: KernelConfig) -> int:
        """Kernel replicas that fit on this device for ``config``."""
        return fit_kernels(self.kernel_resources(config), self.capacity,
                           self.shell)

    def select_memory(self, bytes_needed: int) -> str:
        """First preferred memory space that holds ``bytes_needed``."""
        for name in self.memory_preference:
            memory = self.memories.get(name)
            if memory is not None and memory.fits(bytes_needed):
                return name
        raise CapacityError(
            f"{self.name}: no memory space holds {bytes_needed} bytes "
            f"(capacities: "
            + ", ".join(f"{n}={m.spec.capacity_bytes}"
                        for n, m in self.memories.items())
            + ")"
        )

    def memory_model(self, name: str) -> StreamingMemoryModel:
        try:
            return self.memories[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no memory {name!r}; have "
                f"{sorted(self.memories)}"
            ) from None

    # -- timing ---------------------------------------------------------------

    def invocation(self, config: KernelConfig, grid: Grid, *,
                   num_kernels: int = 1, memory: str | None = None,
                   ) -> InvocationEstimate:
        """Kernel-only invocation time for ``grid`` with ``num_kernels``.

        The domain is decomposed along X; each kernel's time is the larger
        of its pipeline time (cycle model at the achieved clock) and its
        share of memory streaming; the invocation additionally respects
        the memory system's aggregate bandwidth.  Parts of one width cost
        the same, so each distinct width (one for an even split, two for
        a ragged one) is priced once.  ``cycles`` is the widest part's
        pipeline count, which a co-simulation of ``num_kernels`` replicas
        with ample memory (:func:`~repro.kernel.simulate.simulate_kernel`)
        measures exactly.
        """
        if num_kernels < 1:
            raise ConfigurationError(
                f"num_kernels must be >= 1, got {num_kernels}"
            )
        data_bytes = config.bytes_per_cell_cycle * grid.num_cells  # resident
        mem_name = memory or self.select_memory(data_bytes)
        mem = self.memory_model(mem_name)
        clock_hz = self.clock.frequency_hz(num_kernels)
        burst = mem.chunk_burst_bytes(
            min(config.chunk_width, grid.ny), grid.nz,
            itemsize=config.word_bytes,
        )

        decomp = GridDecomposition(grid, min(num_kernels, grid.nx))
        worst_cycles = 0
        worst_memory = 0.0
        total_traffic = 0.0
        by_width: dict[int, tuple[int, int]] = {}
        for start, stop in decomp.bounds:
            width = stop - start
            if width not in by_width:
                sub = grid.with_size(nx=width)
                breakdown = KernelCycleModel(config.for_grid(sub)).breakdown()
                # Streamed traffic: every fed cell is a three-field read,
                # every interior cell a three-value write.
                by_width[width] = (
                    breakdown.total,
                    config.in_bytes_per_cell * breakdown.feeds_total
                    + config.out_bytes_per_cell * sub.num_cells)
            cycles, traffic = by_width[width]
            worst_cycles = max(worst_cycles, cycles)
            total_traffic += traffic
            worst_memory = max(
                worst_memory,
                traffic / mem.effective_per_kernel(burst_bytes=burst),
            )
        aggregate_time = total_traffic / mem.effective_aggregate(
            decomp.parts, burst_bytes=burst
        )
        memory_seconds = max(worst_memory, aggregate_time)
        compute_seconds = worst_cycles / clock_hz
        return InvocationEstimate(
            seconds=max(compute_seconds, memory_seconds)
            + self.launch_overhead_s,
            cycles=worst_cycles,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            num_kernels=decomp.parts,
            memory=mem_name,
            clock_hz=clock_hz,
        )
