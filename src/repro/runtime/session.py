"""End-to-end advection runs on a device model.

:class:`AdvectionSession` is the top of the performance stack: give it a
device (FPGA, GPU, or CPU model), a kernel configuration and a grid, and
it allocates buffers, builds the sequential or overlapped schedule, runs
the discrete-event simulator, and reports overall performance, power and
energy — the quantities plotted in Figs. 5-8.

It can also *functionally execute* the kernel on real data (through the
chunked functional path), which is what the examples use to integrate
time steps "on the device".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.flops import grid_flops
from repro.core.grid import Grid, GridDecomposition
from repro.errors import ConfigurationError
from repro.hardware.cpu import CPUModel
from repro.hardware.device import FPGADevice, InvocationEstimate
from repro.hardware.gpu import GPUModel
from repro.kernel.config import KernelConfig
from repro.kernel.functional import execute_chunked
from repro.runtime.buffer import BufferAllocator
from repro.runtime.overlap import (
    ChunkWork,
    build_overlapped_schedule,
    build_sequential_schedule,
    overlapped_durations,
    sequential_durations,
)
from repro.runtime.simulator import ScheduleResult, schedule_order

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy

__all__ = ["AdvectionSession", "RunResult", "SessionMemo"]

_T = TypeVar("_T")

#: Default number of X chunks for the overlapped schedule.
DEFAULT_X_CHUNKS: int = 16


@dataclass(frozen=True)
class RunResult:
    """Performance summary of one simulated end-to-end run."""

    device: str
    grid_cells: int
    runtime_seconds: float
    kernel_seconds: float
    transfer_seconds: float
    gflops: float
    average_watts: float
    energy_joules: float
    num_kernels: int
    memory: str
    overlapped: bool
    schedule: ScheduleResult | None = None

    @property
    def gflops_per_watt(self) -> float:
        """Power efficiency, the Fig. 8 metric."""
        return self.gflops / self.average_watts


def _number(widths: list[int], work: dict[int, ChunkWork]) -> list[ChunkWork]:
    """One work item per chunk, numbered in X order, from the work of
    one chunk per width."""
    return [replace(work[width], index=index)
            for index, width in enumerate(widths)]


class SessionMemo:
    """Results the runs of several sessions share, computed once per key.

    A run reads four results that most of its inputs leave alone: the
    grid's FLOP count (keyed by the grid), the buffer-capacity check (by
    the device, memory, word width and cell count), each kernel
    invocation's price (:meth:`invocation`, by its whole input) and its
    host schedule's start order
    (:class:`~repro.runtime.simulator.ScheduleOrder`, by the schedule's
    shape: sequential, or overlapped over some number of X chunks).
    Each run still prices its own durations along that order.  A session
    keeps a memo of its own unless it is handed one;
    :class:`~repro.tune.cost.CostModel` hands one to every session it
    builds, and prices its own invocations through it too.  A
    computation that raises is not kept.
    """

    def __init__(self) -> None:
        self._results: dict[tuple[object, ...], Any] = {}

    def get(self, key: tuple[object, ...], compute: Callable[[], _T]) -> _T:
        """``compute()``, run the first time ``key`` is asked for."""
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]

    def flops(self, grid: Grid) -> int:
        """:func:`~repro.core.flops.grid_flops` of ``grid``."""
        return self.get(("flops", grid), lambda: grid_flops(grid))

    def invocation(self, device: FPGADevice, config: KernelConfig,
                   grid: Grid, *, num_kernels: int,
                   memory: str) -> InvocationEstimate:
        """``device.invocation(config, grid, ...)``, once per input it
        reads.

        The price reads the configuration's chunk width, word width,
        shift-buffer II and latencies, never its stream depth or its own
        grid, so configurations that differ only there share one price.
        A device holds unhashable parts, so it is keyed by identity; the
        memo keeps the device with its price, so that identity stays its
        own while the memo lives.
        """
        key = ("invocation", id(device), config.chunk_width,
               config.word_bytes, config.shift_buffer_ii,
               config.memory_latency, config.advect_latency, grid,
               num_kernels, memory)
        return self.get(key, lambda: (device, device.invocation(
            config, grid, num_kernels=num_kernels, memory=memory)))[1]


class AdvectionSession:
    """One device + configuration, ready to run grids through it.

    ``memo`` shares FLOP counts, capacity checks, invocation prices and
    schedule orders with other sessions (:class:`SessionMemo`); by
    default the session keeps its own.
    """

    def __init__(self, device: FPGADevice | GPUModel | CPUModel,
                 config: KernelConfig, *, num_kernels: int | None = None,
                 memory: str | None = None,
                 x_chunks: int = DEFAULT_X_CHUNKS,
                 memo: SessionMemo | None = None) -> None:
        if x_chunks < 1:
            raise ConfigurationError(f"x_chunks must be >= 1, got {x_chunks}")
        self.device = device
        self.config = config
        self.x_chunks = x_chunks
        self._memory_override = memory
        self.memo = SessionMemo() if memo is None else memo
        if isinstance(device, FPGADevice):
            self.num_kernels = (device.max_kernels(config)
                                if num_kernels is None else num_kernels)
            if self.num_kernels < 1:
                raise ConfigurationError(
                    f"{device.name}: no kernels fit this configuration"
                )
        else:
            if num_kernels is not None:
                raise ConfigurationError(
                    f"num_kernels sets FPGA kernel replicas, and "
                    f"{device.name} is not an FPGA (got {num_kernels})")
            self.num_kernels = 1

    # -- memory selection ---------------------------------------------------

    def memory_for(self, grid: Grid) -> str:
        """Memory space the working set lands in (may fall back to DDR)."""
        data_bytes = self.config.bytes_per_cell_cycle * grid.num_cells
        if isinstance(self.device, FPGADevice):
            if self._memory_override is not None:
                return self._memory_override
            return self.device.select_memory(data_bytes)
        if isinstance(self.device, GPUModel):
            self.device.require_fits(grid, word_bytes=self.config.word_bytes)
            return "hbm2"
        return "dram"

    def allocate_buffers(self, grid: Grid) -> BufferAllocator:
        """Allocate the six working buffers; raises CapacityError if too big."""
        if isinstance(self.device, FPGADevice):
            memory = self.device.memory_model(self.memory_for(grid))
        elif isinstance(self.device, GPUModel):
            self.device.require_fits(grid, word_bytes=self.config.word_bytes)
            from repro.hardware.memory import MemorySpec, StreamingMemoryModel

            memory = StreamingMemoryModel(MemorySpec(
                name="hbm2",
                capacity_bytes=self.device.memory_capacity_bytes,
                per_kernel_bandwidth=1.0, aggregate_bandwidth=1.0,
            ))
        else:
            raise ConfigurationError("CPU sessions do not use device buffers")
        allocator = BufferAllocator(memory)
        per_field = self.config.word_bytes * grid.num_cells
        for name in ("u", "v", "w", "su", "sv", "sw"):
            allocator.allocate(name, per_field)
        return allocator

    # -- timing -----------------------------------------------------------------

    def _chunk_kernel_seconds(self, chunk_grid: Grid, memory: str) -> float:
        if isinstance(self.device, FPGADevice):
            return self.memo.invocation(
                self.device, self.config.for_grid(chunk_grid), chunk_grid,
                num_kernels=self.num_kernels, memory=memory,
            ).seconds
        if isinstance(self.device, GPUModel):
            return self.device.kernel_time(chunk_grid)
        raise ConfigurationError("CPU has no kernel-invocation path")

    def chunk_work(self, grid: Grid, *, out_scale: float = 1.0) -> list[ChunkWork]:
        """The overlapped schedule's per-chunk work items for ``grid``.

        ``out_scale`` multiplies each chunk's device-to-host bytes; the
        serving layer uses it to price exact-mode runs, whose result
        readback carries cycle-level telemetry alongside the sources
        (data movement is the dominant cost, so the factor is applied to
        the D2H payload rather than as an opaque latency).
        """
        widths, work = self._chunk_widths(grid, out_scale)
        return _number(widths, work)

    def _chunk_widths(self, grid: Grid, out_scale: float
                      ) -> tuple[list[int], dict[int, ChunkWork]]:
        """Each X chunk's width, and the work of one chunk per width.

        An even X split has one chunk width (a ragged one, two), and
        chunks of one width do the same work: one subgrid per distinct
        width is built and priced.
        """
        if out_scale <= 0:
            raise ConfigurationError(
                f"out_scale must be positive, got {out_scale}"
            )
        memory = self.memory_for(grid)
        decomp = GridDecomposition(grid,
                                   max(1, min(self.x_chunks, grid.nx // 2)))
        widths = [stop - start for start, stop in decomp.bounds]
        work: dict[int, ChunkWork] = {}
        for index, width in enumerate(widths):
            if width not in work:
                sub = grid.with_size(nx=width)
                # Each X chunk re-reads a one-cell halo plane on each side.
                in_cells = (sub.nx + 2) * sub.ny * sub.nz
                work[width] = ChunkWork(
                    index=index,
                    in_bytes=self.config.in_bytes_per_cell * in_cells,
                    out_bytes=(self.config.out_bytes_per_cell
                               * sub.num_cells * out_scale),
                    kernel_seconds=self._chunk_kernel_seconds(sub, memory),
                )
        return widths, work

    def schedule(self, grid: Grid, *, overlapped: bool,
                 out_scale: float = 1.0, name_prefix: str = "",
                 fault_plan: "FaultPlan | None" = None,
                 retry: "RetryPolicy | None" = None,
                 watchdog_seconds: float | None = None) -> ScheduleResult:
        """Simulate ``grid``'s host schedule: its shape's start order
        (:attr:`memo`), priced with this run's own command durations.

        The overlapped schedule moves the :meth:`chunk_work` items
        (``out_scale`` as there) and prefixes every command name with
        ``name_prefix``, as
        :func:`~repro.runtime.overlap.build_overlapped_schedule` does; the
        sequential one moves the whole grid.  ``fault_plan``, ``retry``
        and ``watchdog_seconds`` act as in
        :func:`~repro.runtime.simulator.simulate_schedule`.
        """
        if overlapped:
            widths, work = self._chunk_widths(grid, out_scale)
            pcie = self.device.pcie
            # Chunks of one width take the same seconds.
            seconds = {width: overlapped_durations([chunk], pcie)
                       for width, chunk in work.items()}
            durations = [duration for width in widths
                         for duration in seconds[width]]
            order = self.memo.get(
                ("overlapped", len(widths), pcie.duplex, name_prefix),
                lambda: schedule_order(build_overlapped_schedule(
                    _number(widths, work), pcie, name_prefix=name_prefix)))
        else:
            in_bytes = (self.config.in_bytes_per_cell
                        * (grid.nx + 2) * grid.ny * grid.nz)
            out_bytes = self.config.out_bytes_per_cell * grid.num_cells
            kernel_seconds = self._chunk_kernel_seconds(
                grid, self.memory_for(grid))
            pcie = self.device.pcie
            durations = sequential_durations(in_bytes, out_bytes,
                                             kernel_seconds, pcie)
            order = self.memo.get(
                ("sequential",),
                lambda: schedule_order(build_sequential_schedule(
                    in_bytes, out_bytes, kernel_seconds, pcie)))
        return order.price(durations, fault_plan=fault_plan, retry=retry,
                           watchdog_seconds=watchdog_seconds)

    def run(self, grid: Grid, *, overlapped: bool,
            fault_plan: "FaultPlan | None" = None,
            retry: "RetryPolicy | None" = None,
            watchdog_seconds: float | None = None) -> RunResult:
        """Simulate one end-to-end advection invocation over ``grid``.

        ``fault_plan``/``retry``/``watchdog_seconds`` are threaded into
        the schedule simulator: injected transfer faults occupy the PCIe
        engines for their retries, and the whole schedule is bounded by
        the watchdog (see :func:`repro.runtime.simulator.simulate_schedule`).
        """
        flops = self.memo.flops(grid)

        # ---- CPU: host-resident data, no transfers ------------------------
        if isinstance(self.device, CPUModel):
            seconds = self.device.kernel_time(grid)
            watts = self.device.run_power_watts()
            return RunResult(
                device=self.device.name,
                grid_cells=grid.num_cells,
                runtime_seconds=seconds,
                kernel_seconds=seconds,
                transfer_seconds=0.0,
                gflops=flops / seconds / 1e9,
                average_watts=watts,
                energy_joules=watts * seconds,
                num_kernels=self.device.cores,
                memory="dram",
                overlapped=overlapped,
            )

        memory = self.memory_for(grid)
        # Capacity check (raises if too large).
        self.memo.get(("fits", self.device.name, memory,
                       self.config.word_bytes, grid.num_cells),
                      lambda: self.allocate_buffers(grid))
        schedule = self.schedule(grid, overlapped=overlapped,
                                 fault_plan=fault_plan, retry=retry,
                                 watchdog_seconds=watchdog_seconds)
        kernel_busy = sum(
            seconds for resource, seconds in schedule.busy.items()
            if resource.startswith("kernel")
        )
        transfer_busy = sum(
            seconds for resource, seconds in schedule.busy.items()
            if resource.startswith("pcie")
        )
        # Per-run setup cost (CUDA stream / OpenACC data region creation on
        # the GPU; zero for the FPGAs whose buffers are registered once).
        runtime = schedule.makespan + getattr(self.device, "setup_seconds", 0.0)
        # Board telemetry reports *active* power: accelerator clocks and
        # memory systems do not drop to idle between back-to-back chunks.
        watts = self.device.power.active_watts(
            self.num_kernels, memory, transferring=transfer_busy > 0.0,
        )
        return RunResult(
            device=self.device.name,
            grid_cells=grid.num_cells,
            runtime_seconds=runtime,
            kernel_seconds=kernel_busy,
            transfer_seconds=transfer_busy,
            gflops=flops / runtime / 1e9,
            average_watts=watts,
            energy_joules=watts * runtime,
            num_kernels=self.num_kernels,
            memory=memory,
            overlapped=overlapped,
            schedule=schedule,
        )

    # -- functional execution -----------------------------------------------------

    def execute(self, fields: FieldSet,
                coeffs: AdvectionCoefficients | None = None) -> SourceSet:
        """Functionally execute the kernel on real data (chunked path)."""
        config = self.config.for_grid(fields.grid)
        return execute_chunked(config, fields, coeffs)
