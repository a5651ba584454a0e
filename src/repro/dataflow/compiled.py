"""Compile a :class:`DataflowGraph` into a batched exact executor.

The per-cycle interpreter in :mod:`repro.dataflow.engine` pays Python
dispatch for every stage on every cycle.  This module closes that gap
from the *exact* side: :func:`compile_graph` fixes the tick order and
the stream rows once per run, :func:`plan_window` picks how many whole
periods ``n`` a proved-periodic window may run, and
:func:`execute_window` relays its ``W = n × period`` cycles as one
batched step.  A run replayed from a control record is one relay too:
its whole recorded run, once.

Correctness model
-----------------
A window may only be batched when the engine has *proved* the machine
periodic over it: the control-state fingerprint at the window start
matches a fingerprint ``period`` cycles earlier, so a deterministic
machine must replay those cycles exactly.  The per-period counter deltas
are then applied ``n`` times at once (vectorised over stages and
streams) and the data relayed through the graph in bulk.  Everything
that could make a cycle *observable* is an **event** that bounds the
window instead of being skipped:

* **tracer samples** — a window never covers a cycle an enabled
  tracer's ``sample_every`` stride samples; the engine ticks that cycle
  scalar, then re-enters batching;
* **freeze boundaries** — fault-plan freeze windows change which stages
  tick, so detection state resets at each boundary and no window ever
  crosses one;
* **FIFO fault strikes** — armed stream hooks draw per *push*, so the
  :class:`~repro.faults.plan.FaultPlan` previews the next strike
  (:meth:`~repro.faults.plan.FaultPlan.fifo_strike_within`) and the
  window is capped to the provably strike-free push prefix; skipped
  pushes advance the occurrence counters
  (:meth:`~repro.faults.plan.FaultPlan.skip_fifo`) so later draws are
  bit-identical to a scalar run;
* **stalls and arbiter decisions** — transient stalls never recur in the
  fingerprint, so stall cycles are always ticked scalar (periodic
  steady-state stalls are part of the proved orbit and replay exactly);
  a data-dependent arbiter vetoes fingerprinting altogether and demotes
  the rest of the run to scalar ticking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dataflow.bulk import Bulk, ChainBulk, ListBulk
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.dataflow.stream import Stream
from repro.errors import DataflowError

if TYPE_CHECKING:  # imported lazily to keep dataflow import-cycle free
    from repro.faults.plan import FaultPlan

__all__ = ["CompiledGraph", "EventCalendar", "compile_graph",
           "period_deltas", "plan_window", "execute_window"]


@dataclass
class CompiledGraph:
    """The static plan one engine run ticks and batches against."""

    #: Stages in topological order (the engine's tick order).
    order: list[Stage]
    #: Streams in the graph's canonical order (snapshot row order).
    streams: list[Stream]
    #: stream name -> row index into :attr:`streams`.
    stream_index: dict[str, int]


def compile_graph(graph: DataflowGraph) -> CompiledGraph:
    """Lower ``graph`` to its tick order, stream rows and stream index."""
    streams = list(graph.streams)
    return CompiledGraph(
        order=graph.topological_order(),
        streams=streams,
        stream_index={s.name: i for i, s in enumerate(streams)},
    )


class EventCalendar:
    """Everything that bounds a batched window to stay observable.

    The calendar answers one question: starting at ``sig_cycle``, how
    many whole periods may be skipped before a cycle that *must* be
    ticked scalar — a tracer sample, a freeze-window boundary, or a
    FIFO fault strike?  Windows are capped, never silently extended, so
    every observable event happens on the scalar path at exactly the
    cycle (or push) a fully scalar run would produce it.
    """

    def __init__(self, *,
                 sample_every: int | None = None,
                 freeze: dict[str, tuple[int, int | None]] | None = None,
                 plan: "FaultPlan | None" = None,
                 hooked: Sequence[str] = ()) -> None:
        #: The tracer's sample stride (samples on cycles ``c % stride ==
        #: 0``); an every-cycle stride (1) must be rejected by the caller
        #: — no window can skip anything — and bounds nothing here.
        self.sample_every = (sample_every if sample_every is not None
                             and sample_every > 1 else None)
        bounds: set[int] = set()
        for start, stop in (freeze or {}).values():
            bounds.add(start)
            if stop is not None:
                bounds.add(stop)
        #: Freeze-window boundary cycles; the engine resets recurrence
        #: detection whenever the clock crosses one.
        self.boundaries: tuple[int, ...] = tuple(sorted(bounds))
        self.plan = plan
        #: Streams with an armed fault hook, by name.
        self.hooked: tuple[str, ...] = tuple(hooked)

    def cap_cycles(self, sig_cycle: int) -> int | None:
        """Max cycles skippable from ``sig_cycle`` before a clocked event.

        ``None`` means unbounded (no stride, no upcoming boundary).
        The skipped window ``[sig_cycle, sig_cycle + L - 1]`` must
        exclude every sample cycle and every boundary cycle.
        """
        cap: int | None = None
        if self.sample_every is not None:
            cap = -sig_cycle % self.sample_every
        for boundary in self.boundaries:
            if boundary >= sig_cycle:
                gap = boundary - sig_cycle
                cap = gap if cap is None else min(cap, gap)
                break
        return cap

    def push_rates(self, d_stream: np.ndarray,
                   stream_index: dict[str, int]) -> list[tuple[str, int]]:
        """Per-period push counts for every fault-hooked stream."""
        return [(name, int(d_stream[stream_index[name]][0]))
                for name in self.hooked]

    def cap_periods(self, sig_cycle: int, period: int, n: int,
                    push_rates: Sequence[tuple[str, int]]) -> int:
        """Shrink ``n`` periods to the provably event-free window."""
        cap = self.cap_cycles(sig_cycle)
        if cap is not None:
            n = min(n, cap // period)
        if n <= 0:
            return 0
        if self.plan is not None:
            for name, rate in push_rates:
                if rate <= 0:
                    continue
                strike = self.plan.fifo_strike_within(name, n * rate)
                if strike is not None:
                    n = min(n, strike // rate)
                    if n <= 0:
                        return 0
        return n

    def commit(self, n: int, push_rates: Sequence[tuple[str, int]]) -> None:
        """Account the pushes a committed window skipped.

        The bulk relay bypasses stream fault hooks, so the occurrence
        counters must advance by exactly the previewed-safe push counts —
        otherwise every later draw would shift and the fault trace would
        diverge from a scalar run.
        """
        if self.plan is None:
            return
        for name, rate in push_rates:
            if rate > 0:
                self.plan.skip_fifo(name, n * rate)


# -- window planning and execution ------------------------------------------

def period_deltas(order: list[Stage], streams: list[Stream],
                  snapshot: tuple[tuple, tuple]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-period counter deltas since ``snapshot``, as arrays.

    Rows align with ``order`` / ``streams``; stage columns are
    ``(fires, retired, input_stalls, output_stalls, ii_waits,
    pipeline_full_stalls)``, stream columns ``(pushes, pops,
    full_stalls, empty_stalls)``.
    """
    snap_stage, snap_stream = snapshot
    now_stage = np.array(
        [(s.stats.fires, s.stats.retired, s.stats.input_stalls,
          s.stats.output_stalls, s.stats.ii_waits,
          s.stats.pipeline_full_stalls) for s in order],
        dtype=np.int64).reshape(len(order), 6)
    now_stream = np.array(
        [(st.stats.pushes, st.stats.pops, st.stats.full_stalls,
          st.stats.empty_stalls) for st in streams],
        dtype=np.int64).reshape(len(streams), 4)
    d_stage = now_stage - np.asarray(snap_stage,
                                     dtype=np.int64).reshape(len(order), 6)
    d_stream = now_stream - np.asarray(
        snap_stream, dtype=np.int64).reshape(len(streams), 4)
    return d_stage, d_stream


def _cap_supply(order: list[Stage], fires_per_period: np.ndarray,
                n: int, inner: bool) -> int:
    """Cap ``n`` periods by every firing stage's remaining supply."""
    for i, stage in enumerate(order):
        fpp = int(fires_per_period[i])
        if fpp and n > 0:
            capacity = (stage.ff_inner_capacity if inner
                        else stage.ff_fire_capacity)
            n = min(n, capacity(n * fpp) // fpp)
    return n


def plan_window(order: list[Stage], stream_index: dict[str, int],
                sig_cycle: int, period: int, d_stage: np.ndarray,
                d_stream: np.ndarray, limit: int,
                calendar: EventCalendar | None = None, *,
                inner: bool = False) -> tuple[int, Sequence[tuple[str, int]]]:
    """How many whole periods of ``(d_stage, d_stream)`` may run from
    ``sig_cycle``, and the push rates the calendar must commit.

    The count is ``> 0`` for a window to run, ``0`` when the window must
    be deferred (a parked zero-fire period, or an event due within one
    period — the caller keeps its detection state and ticks scalar), and
    ``-1`` when some stage's capacity cannot cover even one period — its
    supply or its control regime ends first, so the caller drops its
    detection state and hunts afresh.  ``inner`` marks a period measured
    on the inner key (see
    :meth:`~repro.dataflow.stage.Stage.ff_inner_signature`): every
    stage's capacity is then its
    :meth:`~repro.dataflow.stage.Stage.ff_inner_capacity`.
    """
    if len(order) == 0 or int(d_stage[:, 0].sum()) == 0:
        return 0, ()
    n = (limit - sig_cycle - 1) // period
    push_rates: Sequence[tuple[str, int]] = ()
    if calendar is not None:
        push_rates = calendar.push_rates(d_stream, stream_index)
        n = calendar.cap_periods(sig_cycle, period, n, push_rates)
        if n < 1:
            return 0, push_rates
    n = _cap_supply(order, d_stage[:, 0], n, inner)
    return (n if n >= 1 else -1), push_rates


def execute_window(order: list[Stage], streams: list[Stream],
                   stream_index: dict[str, int], sig_cycle: int,
                   target_cycle: int, n: int, d_stage: np.ndarray,
                   d_stream: np.ndarray) -> None:
    """Relay ``n`` repeats of the counter deltas ``(d_stage, d_stream)``
    through the graph, moving the clock from ``sig_cycle`` to
    ``target_cycle``.

    Each stage fires ``n`` times its per-period fires through
    :meth:`~repro.dataflow.stage.Stage.fire_bulk`, and each stream
    relays ``n`` times its pushes and pops.  The relay is FIFO-exact:
    each stream's final content is the last ``occupancy`` items pushed,
    each pipeline's final entries the last ``fill`` produced, so
    per-cycle ticking resumes on a state bit-identical to the scalar
    machine's.  A planned window (:func:`plan_window`) relays whole
    periods; a replayed run relays its whole recorded run once, from
    empty pipelines to empty pipelines.
    """
    # Relay the bulk flow through the graph in topological order.
    pushed: dict[str, Bulk] = {}
    for i, stage in enumerate(order):
        ds = d_stage[i]
        fires = int(ds[0]) * n
        retired = int(ds[1]) * n
        inputs: dict[str, Bulk] = {}
        for port, stream in stage.inputs.items():
            dstr = d_stream[stream_index[stream.name]]
            pops = int(dstr[1]) * n
            combined = ChainBulk([
                ListBulk(list(stream)),
                pushed.get(stream.name, ListBulk([])),
            ])
            inputs[port] = combined.slice(0, pops)
            leftover = combined.slice(pops, len(combined)).materialize()
            stream.ff_replace(
                leftover, pushes=int(dstr[0]) * n, pops=pops,
                full_stalls=int(dstr[2]) * n,
                empty_stalls=int(dstr[3]) * n)
        if fires:
            result = stage.fire_bulk(fires, inputs, sig_cycle)
            if result.producing_firings != retired:
                raise DataflowError(
                    f"stage {stage.name!r}: batched window produced "
                    f"{result.producing_firings} pipeline entries, "
                    f"expected {retired} — not a data-independent "
                    f"steady state"
                )
        else:
            result = None
            if retired:
                raise DataflowError(
                    f"stage {stage.name!r}: batched window retired "
                    f"{retired} entries without firing"
                )
        fill = stage.in_flight
        retired_old = min(retired, fill)
        retired_new = retired - retired_old
        old_entries = stage.ff_pipeline_entries()
        for port, stream in stage.outputs.items():
            old_items = [
                item
                for entry in old_entries[:retired_old]
                for item in entry.get(port, ())
            ]
            parts: list[Bulk] = [ListBulk(old_items)]
            if result is not None and retired_new:
                parts.append(result.head_bulk(port, retired_new))
            pushed[stream.name] = ChainBulk(parts)
        tail = (result.tail_firings(retired_old)
                if result is not None else [])
        stage.ff_commit(
            sig_cycle, target_cycle, fires=fires, retired=retired,
            tail_outputs=old_entries[retired_old:] + tail)
        stage.stats.input_stalls += int(ds[2]) * n
        stage.stats.output_stalls += int(ds[3]) * n
        stage.stats.ii_waits += int(ds[4]) * n
        stage.stats.pipeline_full_stalls += int(ds[5]) * n
