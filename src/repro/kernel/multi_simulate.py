"""Cycle-accurate co-simulation of multiple kernels sharing a memory.

Section IV scales the design to several kernel instances per device.
On HBM2 each kernel owns its banks; on DDR all kernels contend for a few
banks.  This module simulates that contention at cycle level: the read
stages of all kernel instances draw grants from a shared
:class:`MemoryArbiter` with a fixed issue rate (cell-reads per cycle the
memory system sustains), so starving the arbiter reproduces the DDR
saturation the analytic model charges — and with ample grants the
co-simulation matches the independent-kernels model exactly.

Kernel instances are synchronised per Y-chunk (all instances process
chunk *j* together); real hardware lets them drift, but the drift is
bounded by one chunk's fill and the totals agree with the closed-form
model to within that bound (asserted in the tests).

Each engine run executes steady-state windows batched.  Once the arbiter
has denied a request, read counts depend on the denial history, so the
read stage vetoes further windows and the run finishes on the scalar
loop; :attr:`MultiKernelSimResult.batch_fallback_reason` records why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import GridDecomposition
from repro.dataflow.engine import DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.errors import (
    ConfigurationError,
    DataflowError,
    FaultError,
    ReplicaLostError,
    RetryExhaustedError,
)
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.stages import CellInput, ReadDataStage

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["MemoryArbiter", "MultiKernelSimResult", "simulate_multi_kernel"]


class MemoryArbiter:
    """Grants cell-read issues at a sustained fractional rate per cycle.

    ``rate`` is the number of cell reads the shared memory can issue per
    kernel clock cycle (e.g. 6 kernels on HBM2 get rate >= 6; two DDR
    banks might sustain 2.5).  A credit accumulator implements fractional
    rates exactly.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arbiter rate must be positive, got {rate}")
        self.rate = rate
        self._credits = 0.0
        self._cycle = -1
        self.grants = 0
        self.denials = 0

    def tick(self, cycle: int) -> None:
        """Advance to ``cycle``, accruing credits (capped at one cycle's
        worth above the integer part to avoid unbounded bursts)."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._credits = min(self._credits + self.rate,
                                self.rate + 1.0)

    def request(self) -> bool:
        """One stage asks to issue one cell read this cycle."""
        if self._credits >= 1.0:
            self._credits -= 1.0
            self.grants += 1
            return True
        self.denials += 1
        return False


class ArbitratedReadStage(ReadDataStage):
    """A read stage that must win a grant from the shared arbiter."""

    #: Firing is gated by arbiter grants, not just FIFO credits, which
    #: the static occupancy proof cannot see — no compile-time hints.
    unit_rate = False

    def __init__(self, name: str, cells: Iterator[CellInput] | None = None,
                 *, arbiter: MemoryArbiter, block=None, ii: int = 1,
                 latency: int = 16) -> None:
        super().__init__(name, cells, block=block, ii=ii, latency=latency)
        self.arbiter = arbiter

    def _try_fire(self, cycle: int) -> bool:
        self.arbiter.tick(cycle)
        if cycle < self._next_fire_cycle:
            self.stats.ii_waits += 1
            return False
        if len(self._pipeline) >= self.latency:
            self.stats.pipeline_full_stalls += 1
            return False
        if self.exhausted():
            return False
        if not self.arbiter.request():
            self.stats.input_stalls += 1  # starved by the memory system
            return False
        return super()._try_fire(cycle)

    def ff_signature(self, cycle: int) -> tuple | None:
        # A starved arbiter makes firing data-rate-dependent in ways the
        # periodicity proof does not cover once denial history differs
        # between kernels: veto batched windows for the rest of the run
        # the moment any request has ever been denied.  With ample
        # credits the accumulator is part of the control state (it
        # decides *when* grants are available), so it joins the
        # signature exactly.
        if self.arbiter.denials > 0:
            return None
        base = super().ff_signature(cycle)
        if base is None:
            return None
        return base + (self.arbiter._credits,)

    def ff_commit(self, old_cycle: int, new_cycle: int, *, fires: int,
                  retired: int, tail_outputs) -> None:
        super().ff_commit(old_cycle, new_cycle, fires=fires,
                          retired=retired, tail_outputs=tail_outputs)
        # Every batched firing would have won one grant.
        self.arbiter.grants += fires


@dataclass
class MultiKernelSimResult:
    """Outcome of a multi-kernel co-simulation."""

    sources: SourceSet
    total_cycles: int
    num_kernels: int
    arbiter: MemoryArbiter
    chunk_cycles: list[int] = field(default_factory=list)
    #: replicas killed by fault injection, in quarantine order.
    quarantined: list[int] = field(default_factory=list)
    #: chunk-sized work items re-run on survivors after a quarantine.
    rescheduled_chunks: int = 0
    #: chunk re-runs performed by the checkpoint/restart machinery.
    chunk_retries: int = 0
    #: why batched execution fell back to scalar ticking: the distinct
    #: reasons of every engine run, joined in first-seen order as
    #: :meth:`RunStats.merge` does (None when no run fell back).
    batch_fallback_reason: str | None = None

    @property
    def read_starvation_fraction(self) -> float:
        total = self.arbiter.grants + self.arbiter.denials
        return self.arbiter.denials / total if total else 0.0


def simulate_multi_kernel(config: KernelConfig, fields: FieldSet,
                          coeffs: AdvectionCoefficients | None = None, *,
                          num_kernels: int,
                          memory_cells_per_cycle: float | None = None,
                          max_cycles_per_chunk: int = 10_000_000,
                          mode: str = "exact",
                          batched: bool = True,
                          fault_plan: "FaultPlan | None" = None,
                          retry: "RetryPolicy | None" = None,
                          watchdog: int | None = None,
                          tracer: "Tracer | None" = None,
                          metrics: "MetricRegistry | None" = None,
                          ) -> MultiKernelSimResult:
    """Co-simulate ``num_kernels`` kernel instances sharing one memory.

    Parameters
    ----------
    config:
        Per-kernel design; ``config.grid`` is the *global* grid.
    memory_cells_per_cycle:
        Shared memory's sustained issue rate in cell reads per cycle
        across all kernels.  ``None`` means one per kernel per cycle
        (no contention, the HBM2 regime).
    mode:
        Engine mode: ``"exact"`` (``"fast"`` is a deprecated alias).
    batched:
        Batched steady-state execution (default on).  It falls back to
        the per-cycle loop the moment the arbiter starves any read stage,
        so a contended memory always simulates scalar; the reason lands
        on :attr:`MultiKernelSimResult.batch_fallback_reason`.
        ``False`` forces the per-cycle loop.
    fault_plan:
        Optional fault-injection plan.  ``replica`` faults are drawn at
        chunk seams: ``slow`` multiplies the replica's read II for that
        chunk, ``kill`` quarantines it — its X-slab is rescheduled onto
        the surviving replicas (run serially after their own chunk work,
        so throughput drops but the result stays bit-identical).  FIFO
        and stage faults are threaded into every engine run.
    retry:
        Retry budget for faulted chunk runs; defaults to
        ``RetryPolicy()`` when a fault plan is given.  Supplying either
        argument turns chunk-seam checkpointing on.
    watchdog:
        Per-run cycle watchdog passed to the engine.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`.  Stage names carry
        their ``k{p}.`` replica prefix, so each replica's stages land on
        their own lanes automatically; per-chunk spans (including
        rescheduled quarantine work) and quarantine markers go on the
        ``kernel`` track, all shifted onto one global cycle axis.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricRegistry`, threaded
        into every engine run and fed arbiter grant/denial counters and
        the read-starvation fraction at the end.

    Raises
    ------
    ReplicaLostError
        When every replica has been quarantined and no survivor remains
        to take over the work.
    """
    grid = config.grid
    if fields.grid.interior_shape != grid.interior_shape:
        raise ConfigurationError(
            "fields do not match the configured grid"
        )
    if num_kernels < 1:
        raise ConfigurationError(
            f"num_kernels must be >= 1, got {num_kernels}"
        )
    if coeffs is None:
        coeffs = AdvectionCoefficients.uniform(grid)
    rate = (float(num_kernels) if memory_cells_per_cycle is None
            else memory_cells_per_cycle)
    arbiter = MemoryArbiter(rate)

    resilient = fault_plan is not None or retry is not None
    if resilient and retry is None:
        from repro.faults.retry import RetryPolicy as _RetryPolicy

        retry = _RetryPolicy()

    decomp = GridDecomposition(grid, min(num_kernels, grid.nx))
    out = SourceSet.zeros(grid)

    # Per-part halo-extended views and sub-configs.  The chunk plans of
    # all parts are identical (chunking is in Y, the undecomposed axis).
    parts = []
    for p in range(decomp.parts):
        x0, x1 = decomp.bounds[p]
        sub_grid = decomp.subgrid(p)
        sub_fields = FieldSet(
            sub_grid,
            fields.u[x0:x1 + 2, :, :],
            fields.v[x0:x1 + 2, :, :],
            fields.w[x0:x1 + 2, :, :],
        )
        parts.append((x0, sub_grid, sub_fields))

    chunk_plan = config.for_grid(parts[0][1]).chunk_plan()
    total_cycles = 0
    chunk_cycles: list[int] = []
    live = list(range(decomp.parts))
    quarantined: list[int] = []
    rescheduled_chunks = 0
    chunk_retries = 0
    runs: list[RunStats] = []
    trace_on = tracer is not None and tracer.enabled
    # A heavily starved arbiter can stall every read stage for
    # ~kernels/rate cycles between grants; widen the engine's
    # deadlock grace accordingly.
    grace = 64 + int(4 * decomp.parts / min(rate, 1.0))

    def build_part(p: int, chunk, read_ii: int = 1) -> DataflowGraph:
        x0, sub_grid, sub_fields = parts[p]
        sub_config = config.for_grid(sub_grid)
        return build_advection_graph(
            sub_config, sub_fields, chunk, coeffs, out,
            x_offset=x0, name_prefix=f"k{p}.", read_ii=read_ii,
            read_stage_cls=lambda name, cells, ii=1, latency=16,
            block=None: (
                ArbitratedReadStage(name, cells, arbiter=arbiter,
                                    block=block, ii=ii,
                                    latency=latency)),
        )

    def run_resilient(build: Callable[[], DataflowGraph],
                      check_parts: list[int], chunk) -> RunStats:
        """One engine run with chunk-seam checkpoint/retry semantics."""
        nonlocal chunk_retries
        attempt = 0
        while True:
            checkpoint = (
                (out.su.copy(), out.sv.copy(), out.sw.copy())
                if resilient else None
            )
            graph = build()
            engine = DataflowEngine(
                graph, max_cycles=max_cycles_per_chunk,
                stall_grace=grace, mode=mode, batched=batched,
                fault_plan=fault_plan, watchdog=watchdog,
                tracer=tracer, metrics=metrics,
            )
            try:
                if trace_on:
                    assert tracer is not None
                    with tracer.shifted(total_cycles):
                        stats = engine.run()
                else:
                    stats = engine.run()
                if resilient:
                    for p in check_parts:
                        sub_grid = parts[p][1]
                        # One firing per (x, y) column and above-surface
                        # z level (see simulate.py).
                        expected = (sub_grid.nx * chunk.write_width
                                    * (sub_grid.nz - 1))
                        written = graph.stage(f"k{p}.write_data").cells_written  # type: ignore[attr-defined]
                        if written != expected:
                            raise FaultError(
                                f"replica {p}, chunk {chunk.index}: wrote "
                                f"{written} of {expected} cells (words "
                                f"lost in flight)"
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
            runs.append(stats)
            return stats

    for chunk in chunk_plan.chunks:
        # Replica faults strike at chunk seams: a killed replica is
        # quarantined from this chunk onward, a slowed one reads at a
        # multiplied II for this chunk only.
        slow_ii: dict[int, int] = {}
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
                    slow_ii[p] = max(1, round(spec.factor))
        if not live:
            raise ReplicaLostError(
                f"all {decomp.parts} kernel replicas lost by chunk "
                f"{chunk.index}; no survivor to reschedule onto"
            )

        def build_merged(chunk=chunk, slow_ii=slow_ii) -> DataflowGraph:
            merged = DataflowGraph(f"multi[chunk={chunk.index}]")
            for p in live:
                # Merge the part's stages and streams into one graph so a
                # single engine advances all kernels cycle by cycle.
                merged.merge(build_part(p, chunk, slow_ii.get(p, 1)))
            return merged

        chunk_start = total_cycles
        stats = run_resilient(build_merged, list(live), chunk)
        chunk_cycles.append(stats.cycles)
        total_cycles += stats.cycles
        if trace_on:
            assert tracer is not None
            tracer.add_span(
                f"chunk {chunk.index}", "kernel", chunk_start,
                total_cycles, category="chunk",
                replicas=len(live), write_width=chunk.write_width)

        # Graceful degradation: survivors pick up the quarantined
        # replicas' X-slabs, serialised after their own chunk work.  The
        # rescheduled graph is numerically identical to the one the dead
        # replica would have run, so the output stays bit-identical —
        # only the cycle count grows.
        for p in quarantined:
            resched_start = total_cycles
            extra = run_resilient(
                lambda p=p, chunk=chunk: build_part(p, chunk), [p], chunk)
            total_cycles += extra.cycles
            chunk_cycles[-1] += extra.cycles
            rescheduled_chunks += 1
            if trace_on:
                assert tracer is not None
                tracer.add_span(
                    f"chunk {chunk.index} resched k{p}", "kernel",
                    resched_start, total_cycles, category="reschedule",
                    replica=p)

    if metrics is not None and metrics.enabled:
        metrics.counter(
            "arbiter_grants", "cell-read grants issued by the shared memory",
        ).inc(arbiter.grants)
        metrics.counter(
            "arbiter_denials", "cell-read requests the shared memory denied",
        ).inc(arbiter.denials)
        total_requests = arbiter.grants + arbiter.denials
        metrics.gauge(
            "read_starvation_fraction",
            "fraction of read requests denied by the arbiter",
        ).set(arbiter.denials / total_requests if total_requests else 0.0)
        metrics.counter(
            "replica_quarantines", "kernel replicas lost to faults",
        ).inc(len(quarantined))
        metrics.counter(
            "rescheduled_chunks", "quarantined work re-run on survivors",
        ).inc(rescheduled_chunks)

    return MultiKernelSimResult(
        sources=out,
        total_cycles=total_cycles,
        num_kernels=decomp.parts,
        arbiter=arbiter,
        chunk_cycles=chunk_cycles,
        quarantined=quarantined,
        rescheduled_chunks=rescheduled_chunks,
        chunk_retries=chunk_retries,
        batch_fallback_reason=RunStats.merge(runs).batch_fallback_reason,
    )
