"""Cycle-accurate simulation of the full advection kernel.

Runs the Fig. 2 dataflow graph chunk by chunk through the cycle engine,
producing both the numerical result and the measured cycle counts.  Used
on small grids to validate the closed-form
:class:`~repro.kernel.cycle_model.KernelCycleModel` that the paper-scale
benchmarks rely on.  Each chunk's steady state runs as batched windows
(:mod:`repro.dataflow.engine`), which keeps paper-scale grids tractable;
``batched=False`` ticks every cycle with bit-identical results.

Checkpoint/restart
------------------
Chunk seams are natural checkpoints: each chunk's graph is rebuilt from
the (immutable) input fields and only writes its own slab of the output.
With a :class:`~repro.faults.plan.FaultPlan` or
:class:`~repro.faults.retry.RetryPolicy` supplied, the simulation
snapshots the output arrays before each chunk, verifies the chunk wrote
its full complement of cells, and on any :class:`~repro.errors.FaultError`
or :class:`~repro.errors.DataflowError` restores the snapshot and retries
*that chunk only* — completed chunks are never replayed.  Transient
faults (the plan default) therefore cost one chunk re-run and leave the
result bit-identical; persistent faults exhaust the retry budget and
raise :class:`~repro.errors.RetryExhaustedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.dataflow.engine import DataflowEngine, RunStats
from repro.errors import DataflowError, FaultError, RetryExhaustedError
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.shiftbuffer.ports import MemoryPortTracker

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["KernelSimResult", "simulate_kernel"]


@dataclass
class KernelSimResult:
    """Outcome of a cycle-accurate kernel run."""

    sources: SourceSet
    total_cycles: int
    chunk_stats: list[RunStats] = field(default_factory=list)
    port_tracker: MemoryPortTracker | None = None
    #: chunk re-runs performed by the checkpoint/restart machinery.
    chunk_retries: int = 0

    @property
    def cells_per_cycle(self) -> float:
        """Interior cells produced per cycle (steady-state ideal ~= 1)."""
        grid = self.sources.grid
        return grid.num_cells / self.total_cycles if self.total_cycles else 0.0

    def runtime_seconds(self, clock_hz: float) -> float:
        """Wall time of this invocation at a given kernel clock."""
        if clock_hz <= 0:
            raise ValueError(f"clock must be positive, got {clock_hz}")
        return self.total_cycles / clock_hz

    def aggregate_stats(self) -> RunStats:
        """All chunk runs folded into one :class:`RunStats` summary."""
        return RunStats.merge(self.chunk_stats)


def simulate_kernel(config: KernelConfig, fields: FieldSet,
                    coeffs: AdvectionCoefficients | None = None, *,
                    read_ii: int = 1, enforce_ports: bool = True,
                    max_cycles_per_chunk: int = 10_000_000,
                    mode: str = "exact",
                    batched: bool = True,
                    fault_plan: "FaultPlan | None" = None,
                    retry: "RetryPolicy | None" = None,
                    watchdog: int | None = None,
                    tracer: "Tracer | None" = None,
                    metrics: "MetricRegistry | None" = None,
                    ) -> KernelSimResult:
    """Simulate one kernel invocation cycle by cycle.

    Parameters
    ----------
    config:
        Kernel design parameters; ``config.grid`` must match ``fields``.
    fields:
        Input wind fields with valid halos.
    coeffs:
        Advection coefficients (default: uniform atmosphere).
    read_ii:
        Initiation interval of the read stage (*1* = memory keeps up).
    enforce_ports:
        Raise on any dual-port violation (the paper's partitioning claim
        is then checked on every simulated cycle).
    mode:
        Engine mode: ``"exact"`` (``"fast"`` is a deprecated alias).
    batched:
        Let the engine advance proved-safe steady-state windows in bulk
        while keeping every observable cycle scalar (bit-identical stats,
        default on; see :mod:`repro.dataflow.engine`).  ``False`` forces
        the pure per-cycle loop — the escape hatch and the benchmark
        baseline.
    fault_plan:
        Optional fault-injection plan, threaded into every chunk's engine
        run (FIFO word faults, stage freezes) and enabling the
        checkpoint/restart path described in the module docstring.
    retry:
        Retry budget for faulted chunks; defaults to
        ``RetryPolicy()`` when a fault plan is given.  Supplying either
        argument turns checkpointing on.
    watchdog:
        Per-chunk cycle watchdog passed to the engine (typed
        :class:`~repro.errors.WatchdogTimeout` instead of spinning).
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`.  Each chunk's
        engine spans are shifted onto one global cycle axis (chunks run
        back to back), topped by a per-chunk span on the ``kernel`` track
        carrying seam geometry and halo-read overhead, plus retry
        markers when the checkpoint/restart path re-runs a chunk.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricRegistry`, threaded
        into every chunk's engine run and fed kernel-level counters
        (``kernel_chunks``, ``kernel_chunk_retries``,
        ``kernel_halo_read_cells``).

    Notes
    -----
    The kernel processes chunks back to back; each chunk refills the
    pipeline, which is exactly the per-chunk overhead the closed-form
    cycle model charges.
    """
    grid = config.grid
    if fields.grid.interior_shape != grid.interior_shape:
        raise ValueError(
            f"fields are on grid {fields.grid.interior_shape}, config "
            f"expects {grid.interior_shape}"
        )
    if coeffs is None:
        coeffs = AdvectionCoefficients.uniform(grid)

    resilient = fault_plan is not None or retry is not None
    if resilient and retry is None:
        from repro.faults.retry import RetryPolicy as _RetryPolicy

        retry = _RetryPolicy()

    out = SourceSet.zeros(grid)
    tracker = MemoryPortTracker(enforce=enforce_ports)
    chunk_stats: list[RunStats] = []
    total_cycles = 0
    chunk_retries = 0
    trace_on = tracer is not None and tracer.enabled

    plan = config.chunk_plan()
    for chunk in plan.chunks:
        # Chunk-seam checkpoint: the output slabs of every *completed*
        # chunk.  A failed attempt restores it, so retries never see the
        # partial writes of the attempt that died.
        checkpoint = (
            (out.su.copy(), out.sv.copy(), out.sw.copy())
            if resilient else None
        )
        # One write firing per (x, y) column and z level above the
        # surface — the surface level rides along with level 1, so a
        # healthy chunk fires exactly nx * write_width * (nz - 1) times.
        expected_cells = grid.nx * chunk.write_width * (grid.nz - 1)
        attempt = 0
        while True:
            graph = build_advection_graph(
                config, fields, chunk, coeffs, out, read_ii=read_ii,
                tracker=tracker,
            )
            engine = DataflowEngine(
                graph, max_cycles=max_cycles_per_chunk, mode=mode,
                batched=batched, fault_plan=fault_plan, watchdog=watchdog,
                tracer=tracer, metrics=metrics,
            )
            try:
                if trace_on:
                    assert tracer is not None
                    # Chunks run back to back: shift this chunk's engine
                    # spans from local cycle 0 onto the global axis.
                    with tracer.shifted(total_cycles):
                        stats = engine.run()
                else:
                    stats = engine.run()
                if resilient:
                    written = graph.stage("write_data").cells_written  # type: ignore[attr-defined]
                    if written != expected_cells:
                        raise FaultError(
                            f"chunk {chunk.index}: wrote {written} of "
                            f"{expected_cells} cells (words lost in flight)"
                        )
            except (FaultError, DataflowError) as error:
                if not resilient:
                    raise
                assert retry is not None and checkpoint is not None
                attempt += 1
                if attempt >= retry.max_attempts:
                    raise RetryExhaustedError(
                        f"chunk {chunk.index} failed after {attempt} "
                        f"attempts (last error: {error})"
                    ) from error
                np.copyto(out.su, checkpoint[0])
                np.copyto(out.sv, checkpoint[1])
                np.copyto(out.sw, checkpoint[2])
                chunk_retries += 1
                if trace_on:
                    assert tracer is not None
                    tracer.instant(
                        "chunk retry", "kernel", ts=float(total_cycles),
                        chunk=chunk.index, attempt=attempt,
                        error=str(error))
                continue
            break
        chunk_stats.append(stats)
        if trace_on:
            assert tracer is not None
            halo_cells = chunk.read_width - chunk.write_width
            tracer.add_span(
                f"chunk {chunk.index}", "kernel", total_cycles,
                total_cycles + stats.cycles, category="chunk",
                read_width=chunk.read_width, write_width=chunk.write_width,
                halo_overhead=round(halo_cells / chunk.read_width, 4),
                retries=attempt)
        total_cycles += stats.cycles

    if metrics is not None and metrics.enabled:
        metrics.counter(
            "kernel_chunks", "chunks simulated per kernel invocation",
        ).inc(len(plan.chunks))
        metrics.counter(
            "kernel_chunk_retries", "chunk re-runs by checkpoint/restart",
        ).inc(chunk_retries)
        metrics.counter(
            "kernel_halo_read_cells",
            "redundant cells streamed for chunk-seam halos",
        ).inc(plan.overlap_cells * (grid.nx + 2) * grid.nz)

    return KernelSimResult(
        sources=out,
        total_cycles=total_cycles,
        chunk_stats=chunk_stats,
        port_tracker=tracker,
        chunk_retries=chunk_retries,
    )
