"""Cycle-accurate simulation of the advection kernel, one replica or several.

Runs the Fig. 2 dataflow graph chunk by chunk through the cycle engine,
producing both the numerical result and the measured cycle counts.  Used
on small grids to validate the closed-form
:class:`~repro.kernel.cycle_model.KernelCycleModel` that the paper-scale
benchmarks rely on.  Each chunk's steady state runs as batched windows
(:mod:`repro.dataflow.engine`), which keeps paper-scale grids tractable;
``batched=False`` ticks every cycle with bit-identical results.

Shared memory
-------------
Section IV scales the design to several kernel replicas per device.  On
HBM2 each replica owns its banks; on DDR all replicas contend for a few
banks.  A run is *shared* when it has more than one replica or is given
a memory rate.  The grid is then split along X between the replicas,
their stages carry ``k{p}.`` name prefixes, and each chunk merges every
replica's graph into one, so a single engine advances all replicas cycle
by cycle.  Their read stages draw grants from one shared
:class:`~repro.kernel.stages.MemoryArbiter` with a fixed issue rate (cell
reads per cycle the memory sustains), so starving the arbiter reproduces
the DDR saturation the analytic model charges — and with ample grants
the run matches the independent-kernels model exactly.  Replicas are
synchronised per Y-chunk (all process chunk *j* together); real hardware
lets them drift, but only by one chunk's fill.  Once the arbiter has
denied a request, read counts depend on the denial history, so the read
stages veto further batched windows and the run finishes on the scalar
loop; the merged :attr:`~repro.dataflow.engine.RunStats.batch_fallback_reason`
records why.

Checkpoint/restart
------------------
Chunk seams are natural checkpoints: each chunk's graph is rebuilt from
the (immutable) input fields, and each engine run writes only its own
region of the output, its replicas' X-ranges across the chunk's write
columns.  The driver allocates the output, so that region is zero when
the run starts.  With a :class:`~repro.faults.plan.FaultPlan` or
:class:`~repro.faults.retry.RetryPolicy` supplied, the simulation
verifies each replica wrote its full complement of cells, and on any
:class:`~repro.errors.FaultError` or :class:`~repro.errors.DataflowError`
zeroes the run's region and retries *that run only* — completed chunks
are never replayed.  Transient faults (the plan default) therefore cost
one re-run and leave the result bit-identical; persistent faults
exhaust the retry budget and raise
:class:`~repro.errors.RetryExhaustedError`.  The restarts run through
:meth:`~repro.faults.retry.RetryPolicy.call`, the loop that also drives
rank respawns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import GridDecomposition
from repro.dataflow.engine import ControlRecord, DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.errors import (
    ConfigurationError,
    DataflowError,
    FaultError,
    ReplicaLostError,
)
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.stages import MemoryArbiter
from repro.shiftbuffer.chunking import Chunk
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
    #: one :class:`RunStats` per chunk, merged over the chunk's engine
    #: runs (its rescheduled work included).
    chunk_stats: list[RunStats] = field(default_factory=list)
    #: the shift buffers' port ledger; a shared run's replicas each keep
    #: their own, merged here (:meth:`MemoryPortTracker.merged`).
    port_tracker: MemoryPortTracker | None = None
    #: chunk re-runs performed by the checkpoint/restart machinery.
    chunk_retries: int = 0
    #: kernel replicas the grid was split between (at most ``nx``).
    num_kernels: int = 1
    #: the shared memory's arbiter; ``None`` for a plain run.
    arbiter: MemoryArbiter | None = None
    #: replicas killed by fault injection, in quarantine order.
    quarantined: list[int] = field(default_factory=list)
    #: chunk-sized work items re-run on survivors after a quarantine.
    rescheduled_chunks: int = 0

    @property
    def chunk_cycles(self) -> list[int]:
        """Cycles per chunk, rescheduled work included."""
        return [stats.cycles for stats in self.chunk_stats]

    @property
    def read_starvation_fraction(self) -> float:
        """Fraction of read requests the shared memory denied."""
        if self.arbiter is None:
            return 0.0
        total = self.arbiter.grants + self.arbiter.denials
        return self.arbiter.denials / total if total else 0.0

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
                    num_kernels: int = 1,
                    memory_cells_per_cycle: float | None = None,
                    read_ii: int = 1, enforce_ports: bool = True,
                    mode: str = "exact",
                    batched: bool = True,
                    fault_plan: "FaultPlan | None" = None,
                    retry: "RetryPolicy | None" = None,
                    watchdog: int | None = None,
                    tracer: "Tracer | None" = None,
                    metrics: "MetricRegistry | None" = None,
                    record: ControlRecord | None = None,
                    ) -> KernelSimResult:
    """Simulate one kernel invocation cycle by cycle.

    Parameters
    ----------
    config:
        Kernel design parameters; ``config.grid`` is the *global* grid and
        must match ``fields`` (:class:`~repro.errors.ConfigurationError`
        otherwise).
    fields:
        Input wind fields with valid halos.
    coeffs:
        Advection coefficients (default: uniform atmosphere).
    num_kernels:
        Kernel replicas to split the grid between along X (capped at
        ``nx``).  More than one makes the run shared (module docstring).
    memory_cells_per_cycle:
        Shared memory's sustained issue rate in cell reads per cycle
        across all replicas.  ``None`` means one read per running
        replica per cycle (no contention, the HBM2 regime) for a run of
        several replicas, and no arbiter at all for one replica; a rate
        makes even a one-replica run shared.
    read_ii:
        Initiation interval of every replica's read stage (*1* = memory
        keeps up).
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
        Optional fault-injection plan, threaded into every engine run
        (FIFO word faults, stage freezes) and enabling the
        checkpoint/restart path described in the module docstring.
        ``replica`` faults are drawn at chunk seams: ``slow`` multiplies
        the replica's read II by ``round(factor)`` for that chunk,
        ``kill`` quarantines it — its X-slab is rescheduled onto the
        surviving replicas (run serially after their own chunk work, so
        throughput drops but the result stays bit-identical).
    retry:
        Retry budget for faulted runs; defaults to ``RetryPolicy()`` when
        a fault plan is given.  Supplying either argument turns
        checkpointing on.
    watchdog:
        Per-run cycle watchdog passed to the engine (typed
        :class:`~repro.errors.WatchdogTimeout` instead of spinning).
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`.  Each run's engine
        spans are shifted onto one global cycle axis (runs go back to
        back), topped by a per-chunk span on the ``kernel`` track
        carrying seam geometry and halo-read overhead, plus retry
        markers when the checkpoint/restart path re-runs a chunk.  A
        shared run's ``k{p}.`` stage names put each replica on its own
        lanes, and quarantine markers and rescheduled work go on the
        ``kernel`` track too.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricRegistry`, threaded
        into every engine run and fed kernel-level counters
        (``kernel_chunks``, ``kernel_chunk_retries``,
        ``kernel_halo_read_cells``); a shared run adds the arbiter's
        grants and denials, the read-starvation fraction, replica
        quarantines and rescheduled chunks.
    record:
        The :class:`~repro.dataflow.engine.ControlRecord` every engine
        run shares, so a chunk as wide as an earlier one replays it as
        one bulk step.  A fresh record scopes to this call when none is
        given; a caller running several kernel passes in one call (a
        scenario's batches) passes its own.  Arbitrated reads keep a
        shared run out of recording and replay.

    Raises
    ------
    ReplicaLostError
        When every replica has been quarantined and no survivor remains
        to take over the work.

    Notes
    -----
    The kernel processes chunks back to back; each chunk refills the
    pipeline, which is exactly the per-chunk overhead the closed-form
    cycle model charges.
    """
    if read_ii < 1:
        raise ConfigurationError(f"read_ii must be >= 1, got {read_ii}")
    if num_kernels < 1:
        raise ConfigurationError(
            f"num_kernels must be >= 1, got {num_kernels}")
    grid = config.grid
    if fields.grid.interior_shape != grid.interior_shape:
        raise ConfigurationError(
            f"fields are on grid {fields.grid.interior_shape}, config "
            f"expects {grid.interior_shape}"
        )
    if coeffs is None:
        coeffs = AdvectionCoefficients.uniform(grid)
    if record is None:
        record = ControlRecord()

    decomp = GridDecomposition(grid, min(num_kernels, grid.nx))
    shared = num_kernels > 1 or memory_cells_per_cycle is not None
    arbiter: MemoryArbiter | None = None
    grace: int | None = None
    if shared:
        rate = (float(decomp.parts) if memory_cells_per_cycle is None
                else memory_cells_per_cycle)
        arbiter = MemoryArbiter(rate)
        # A heavily starved arbiter can stall every read stage for
        # ~kernels/rate cycles between grants; widen the engine's
        # deadlock grace accordingly.
        grace = 64 + int(4 * decomp.parts / min(rate, 1.0))

    out = SourceSet.zeros(grid)
    # One port ledger per replica: a replica's memories age only by its
    # own bookings, as in a plain run of its sub-grid.
    trackers = [MemoryPortTracker(enforce=enforce_ports)
                for _ in range(decomp.parts)]
    # Each replica's X-slab of the fields (halo-extended) and sub-config.
    # Chunking is in Y, the undecomposed axis, so all replicas share the
    # global chunk plan.
    parts = []
    for p, (x0, x1) in enumerate(decomp.bounds):
        sub_grid = decomp.subgrid(p)
        parts.append((x0, config.for_grid(sub_grid), FieldSet(
            sub_grid, fields.u[x0:x1 + 2], fields.v[x0:x1 + 2],
            fields.w[x0:x1 + 2])))

    def prefix(p: int) -> str:
        return f"k{p}." if shared else ""

    def build_part(p: int, chunk: Chunk, ii: int) -> DataflowGraph:
        x0, sub_config, sub_fields = parts[p]
        return build_advection_graph(
            sub_config, sub_fields, chunk, coeffs, out, read_ii=ii,
            tracker=trackers[p], x_offset=x0, name_prefix=prefix(p),
            arbiter=arbiter)

    def run(members: list[int], chunk: Chunk, start: int,
            slow: dict[int, int]) -> tuple[RunStats, int]:
        def build() -> DataflowGraph:
            graphs = [build_part(p, chunk, read_ii * slow.get(p, 1))
                      for p in members]
            if len(graphs) == 1:
                return graphs[0]
            # One graph for every replica, so one engine advances them
            # all cycle by cycle.
            merged = DataflowGraph(f"multi[chunk={chunk.index}]")
            for graph in graphs:
                merged.merge(graph)
            return merged

        return run_chunk(
            build, chunk, out,
            writers=[(f"{prefix(p)}write_data", parts[p][0],
                      parts[p][1].grid.nx,
                      f"replica {p}, chunk {chunk.index}" if shared
                      else f"chunk {chunk.index}") for p in members],
            start=start, fault_plan=fault_plan, retry=retry, tracer=tracer,
            metrics=metrics, stall_grace=grace, mode=mode, batched=batched,
            watchdog=watchdog, record=record,
        )

    trace_on = tracer is not None and tracer.enabled
    live = list(range(decomp.parts))
    quarantined: list[int] = []
    rescheduled_chunks = 0
    chunk_retries = 0
    chunk_stats: list[RunStats] = []
    total_cycles = 0
    plan = config.chunk_plan()
    for chunk in plan.chunks:
        # Replica faults strike at chunk seams: a killed replica is
        # quarantined from this chunk onward, a slowed one reads at a
        # multiplied II for this chunk only.
        slow: dict[int, int] = {}
        if fault_plan is not None:
            for p in list(live):
                spec = fault_plan.replica_fault(p, chunk.index)
                if spec is None:
                    continue
                if spec.kind == "kill":
                    live.remove(p)
                    quarantined.append(p)
                    if trace_on:
                        assert tracer is not None
                        tracer.instant(
                            "replica quarantined", "kernel",
                            ts=float(total_cycles), replica=p,
                            chunk=chunk.index)
                else:
                    slow[p] = max(1, round(spec.factor))
        if not live:
            raise ReplicaLostError(
                f"all {decomp.parts} kernel replicas lost by chunk "
                f"{chunk.index}; no survivor to reschedule onto"
            )

        stats, retries = run(live, chunk, total_cycles, slow)
        if trace_on:
            assert tracer is not None
            halo_cells = chunk.read_width - chunk.write_width
            tracer.add_span(
                f"chunk {chunk.index}", "kernel", total_cycles,
                total_cycles + stats.cycles, category="chunk",
                read_width=chunk.read_width, write_width=chunk.write_width,
                halo_overhead=round(halo_cells / chunk.read_width, 4),
                retries=retries)
        total_cycles += stats.cycles
        chunk_retries += retries
        runs = [stats]

        # Graceful degradation: survivors pick up the quarantined
        # replicas' X-slabs, serialised after their own chunk work.  The
        # rescheduled graph is numerically identical to the one the dead
        # replica would have run, so the output stays bit-identical —
        # only the cycle count grows.
        for p in quarantined:
            extra, retries = run([p], chunk, total_cycles, {})
            if trace_on:
                assert tracer is not None
                tracer.add_span(
                    f"chunk {chunk.index} resched k{p}", "kernel",
                    total_cycles, total_cycles + extra.cycles,
                    category="reschedule", replica=p)
            total_cycles += extra.cycles
            chunk_retries += retries
            runs.append(extra)
            rescheduled_chunks += 1
        chunk_stats.append(RunStats.merge(runs))

    result = KernelSimResult(
        sources=out,
        total_cycles=total_cycles,
        chunk_stats=chunk_stats,
        port_tracker=MemoryPortTracker.merged(trackers),
        chunk_retries=chunk_retries,
        num_kernels=decomp.parts,
        arbiter=arbiter,
        quarantined=quarantined,
        rescheduled_chunks=rescheduled_chunks,
    )
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
        ).inc(plan.overlap_cells * (grid.nx + 2 * decomp.parts) * grid.nz)
        if arbiter is not None:
            metrics.counter(
                "arbiter_grants",
                "cell-read grants issued by the shared memory",
            ).inc(arbiter.grants)
            metrics.counter(
                "arbiter_denials",
                "cell-read requests the shared memory denied",
            ).inc(arbiter.denials)
            metrics.gauge(
                "read_starvation_fraction",
                "fraction of read requests denied by the arbiter",
            ).set(result.read_starvation_fraction)
            metrics.counter(
                "replica_quarantines", "kernel replicas lost to faults",
            ).inc(len(quarantined))
            metrics.counter(
                "rescheduled_chunks", "quarantined work re-run on survivors",
            ).inc(rescheduled_chunks)
    return result


def run_chunk(build: Callable[[], DataflowGraph], chunk: Chunk,
              out: SourceSet, *, writers: list[tuple[str, int, int, str]],
              start: int, fault_plan: "FaultPlan | None",
              retry: "RetryPolicy | None", tracer: "Tracer | None",
              **engine_options: Any) -> tuple[RunStats, int]:
    """Run one chunk's graph through the engine, restarting it on faults.

    Without a fault plan or retry policy the graph is built and run once,
    and any error propagates unwrapped.  With either (the policy defaults
    to ``RetryPolicy()``), every ``(write stage, x offset, sub-grid nx,
    label)`` in ``writers`` must write its chunk's full complement of
    cells, and each :class:`~repro.errors.FaultError` or
    :class:`~repro.errors.DataflowError` zeroes the run's region of the
    output before :meth:`~repro.faults.retry.RetryPolicy.call` runs the
    chunk again.  That region, each writer's X-range across the chunk's
    write columns, holds the only cells the run writes, and it is zero
    when the run starts: the driver allocates the output and its runs
    write disjoint regions.  ``start`` is the chunk's first cycle on the
    global axis: its engine spans are shifted there and its retry markers
    placed there.

    Returns the chunk's :class:`RunStats` and the number of retries it took.
    """
    if retry is None and fault_plan is not None:
        from repro.faults.retry import RetryPolicy as _RetryPolicy

        retry = _RetryPolicy()
    trace_on = tracer is not None and tracer.enabled

    def attempt() -> RunStats:
        graph = build()
        engine = DataflowEngine(graph, fault_plan=fault_plan, tracer=tracer,
                                **engine_options)
        if trace_on:
            assert tracer is not None
            # Runs go back to back: shift this run's engine spans from
            # local cycle 0 onto the global axis.
            with tracer.shifted(start):
                stats = engine.run()
        else:
            stats = engine.run()
        if retry is not None:
            for stage, _x0, nx, label in writers:
                # One write firing per (x, y) column and z level above the
                # surface (the surface level rides along with level 1).
                expected = nx * chunk.write_width * (out.grid.nz - 1)
                written = graph.stage(stage).cells_written  # type: ignore[attr-defined]
                if written != expected:
                    raise FaultError(
                        f"{label}: wrote {written} of {expected} cells "
                        f"(words lost in flight)"
                    )
        return stats

    if retry is None:
        return attempt(), 0

    columns = slice(chunk.write_start - 1, chunk.write_stop - 1)
    regions = [(slice(x0, x0 + nx), columns)
               for _stage, x0, nx, _label in writers]
    retries = 0

    def restore(failure_index: int, error: BaseException) -> None:
        nonlocal retries
        for array in out.as_tuple():
            for region in regions:
                array[region] = 0.0
        retries += 1
        if trace_on:
            assert tracer is not None
            tracer.instant(
                "chunk retry", "kernel", ts=float(start),
                chunk=chunk.index, attempt=failure_index + 1,
                error=str(error))

    stats = retry.call(attempt, retry_on=(FaultError, DataflowError),
                       describe=f"chunk {chunk.index}", on_retry=restore)
    return stats, retries
