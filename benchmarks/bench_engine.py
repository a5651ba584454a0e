"""Perf-regression harness for the engine's batched execution path.

Runs the full Fig. 2 kernel simulation on the same grid two ways — the
forced-scalar exact loop (the baseline) and batched exact execution (the
default) — verifies both are bit-for-bit identical (cycle counts,
per-stage fires and stalls, output bytes), and records wall times and
the speedup to ``benchmarks/BENCH_dataflow.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py              # 64^3
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
        --output /tmp/bench_smoke.json                            # 32^3

Exit status is non-zero if the batched run disagrees with the scalar
baseline or its speedup falls below ``--min-batched-speedup`` (default
25x).  ``--smoke`` shrinks the grid to 32^3 for CI under the same 25x
gate, which 32^3 clears with headroom; 16^3 would not (about 9x: its
5,233 cycles are too few to amortise a run's fixed costs, the graph
set-up and the few hundred scalar cycles of read fill, proving columns
and drain).

A stencil leg runs the generic stencil machine the same two ways: the
diffusion kernel on one field of the same grid, through
``run_stencil_kernel``.  It checks output bytes, cycles, per-stage fires
and stalls and memory-port reports, and fails when batched windows are
less than ``MIN_STENCIL_SPEEDUP`` (15x) faster than forced-scalar
ticking — under half the ~40x a shared 2-vCPU x86-64 host measures at
32^3.  Both forced-scalar records carry the host microseconds per
simulated cycle (``us_per_cycle`` in ``extra``): the cost of one scalar
tick of each machine, which the batched speedups are ratios against.

A replay leg runs the diffusion kernel on all three fields of the grid
with one shared ``ControlRecord``, as ``_StencilKernel.run`` does, and
forced-scalar beside it.  It checks bytes, cycles, fires, stalls and
high-water marks field by field and records each field's wall time.
The second and third fields repeat the first one's machine, so each
must replay as one bulk step: the leg fails unless both report 0
scalar cycles in 1 batched window.  That gate is a count, not a time,
so it is deterministic.

Count gates bound the batched kernel and stencil legs by the scalar
cycles and windows the engine needed when they were set
(``MAX_BATCHED_COUNTS``): kernel 212 scalar cycles in 6 windows and
stencil 125 in 6 on the 32^3 smoke grid, 276 in 6 and 221 in 6 at 64^3.
A control fingerprint that misses a recurrence ticks more scalar cycles
and fails here; other grids (or a ``--chunk-width``) print the counts
ungated.  Like the replay gate these are counts, so they are
deterministic.

A cut gate counts the windows ``ShiftBuffer3D.window_at`` cuts while
an engine run is in progress, over the fault-free kernel and stencil
legs, forced scalar, batched and replayed alike, and fails unless both
counts are 0: the data path hands runs of the blocks from the shift
buffer to the write stage, which evaluates them on ``WindowRun`` views,
so no scalar tick cuts a window (``window_cuts`` in the kernel and
stencil records).  ``run_stencil_kernel`` checks its window functions
on two windows cut before its engine run starts; those are not counted.

A fingerprint leg runs the batched kernel once more with the engine's
two signature methods (``DataflowEngine._ff_machine_signature`` and
``_ff_inner_signature``) timed, and records ``fingerprint_us`` in the
batched record: mean host microseconds per scalar-cycle machine
fingerprint, both keys included.

A memory leg runs the batched kernel once more, untimed, under
``tracemalloc`` and records its peak in the batched record.  It fails
when the peak exceeds ``MAX_BATCHED_BYTES_PER_CELL`` (128) bytes per
interior cell: batched windows read the stencil through strided box
views of the block, so a run holds its outputs and a few box-sized
temporaries, not per-window index and gather arrays.  A shared 2-vCPU
x86-64 host measures about 80 B/cell at 64^3 and 91 at 32^3; index
gathers took 153 and 162.

A resilient run arms the checkpoint/restart machinery with an empty
fault plan and gates its fault-free overhead against the plain batched
run (``--max-resilience-overhead``, default 3%): recovery must be free
when nothing fails.

An observed run threads a *disabled* tracer (with a ``sample_every``
stride, which a disabled tracer must ignore) and metric registry through
the whole stack and gates their compiled-in-but-off cost the same way
(``--max-observe-overhead``, default 3%): observability must be free
when nobody is watching.  Both overhead gates run in batched mode — the
production configuration — so the budget covers the calendar and
preview bookkeeping too.

Each gated overhead is the median, over ``--overhead-repeats`` (default
9) interleaved tuples of the plain, resilient and observed runs, of the
leg's wall time divided by the plain run's in the same tuple.  Tuple
``i`` starts at leg ``i mod 3``, so no leg always runs first, and a
slow stretch of the host shifts one tuple's three timings together.

A sampled run threads an *enabled* tracer sampling every
``SAMPLED_STRIDE`` cycles.  Its sample cycles bound batched windows and
restart recurrence detection, so it costs many times the plain run; its
overhead, the median of ``SAMPLED_PAIRS`` interleaved pairs with the
plain run, is printed and recorded ungated, so the cost of watching is
on record too.
"""

from __future__ import annotations

import argparse
import contextlib
import platform
import statistics
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import ControlRecord, DataflowEngine
from repro.faults import FaultPlan, RetryPolicy
from repro.kernel.config import KernelConfig
from repro.kernel.generic import run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.observe import MetricRegistry, Tracer
from repro.perf.bench import BenchRecord, BenchSuite, render_table, speedup
from repro.scenarios.kernels import DiffusionKernel
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker

DEFAULT_OUTPUT = "benchmarks/BENCH_dataflow.json"

#: Floor on the generic stencil machine's batched speedup over
#: forced-scalar ticking.
MIN_STENCIL_SPEEDUP = 15.0

#: Ceiling on the batched kernel run's tracemalloc peak, in bytes per
#: interior cell.
MAX_BATCHED_BYTES_PER_CELL = 128

#: The sampled leg's tracer stride: every stream's occupancy and every
#: stage's fires, once per this many cycles of each engine run.
SAMPLED_STRIDE = 1024

#: Interleaved plain/sampled timing pairs behind the sampled overhead.
SAMPLED_PAIRS = 3

#: Ceilings on the batched legs' (scalar cycles, windows), per grid at
#: the default chunk width.
MAX_BATCHED_COUNTS = {
    "32x32x32": {"kernel": (212, 6), "stencil": (125, 6)},
    "64x64x64": {"kernel": (276, 6), "stencil": (221, 6)},
}


def us_per_cycle(seconds, cycles):
    """Host microseconds per simulated cycle, to two decimals."""
    return round(seconds / cycles * 1e6, 2)


def run_once(config, fields, **kwargs):
    start = time.perf_counter()
    result = simulate_kernel(config, fields, **kwargs)
    return result, time.perf_counter() - start


def overhead_ratios(config, fields, legs, tuples):
    """Per-tuple wall-time ratios of each leg to the first one.

    ``legs`` maps a name to a function returning its ``simulate_kernel``
    keyword arguments; the first leg is the baseline.  Runs ``tuples``
    tuples of every leg, tuple ``i`` starting at leg ``i mod len(legs)``.
    Returns the ratios and the raw wall times, per leg name.
    """
    names = list(legs)
    times = {name: [] for name in names}
    for index in range(tuples):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            times[name].append(run_once(config, fields, **legs[name]())[1])
    ratios = {name: [t / base for t, base in zip(times[name],
                                                 times[names[0]])]
              for name in names[1:]}
    return ratios, times


def traced_peak(config, fields):
    """The tracemalloc peak, in bytes, of one batched kernel run."""
    tracemalloc.start()
    try:
        simulate_kernel(config, fields)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def counting_window_cuts():
    """Count the windows ``ShiftBuffer3D.window_at`` cuts while a
    ``DataflowEngine.run`` is in progress; yields a one-entry list."""
    cuts = [0]
    running = [0]
    run, window_at = DataflowEngine.run, ShiftBuffer3D.window_at

    def counted_run(engine):
        running[0] += 1
        try:
            return run(engine)
        finally:
            running[0] -= 1

    def counted_window_at(buffer, index, backing):
        cuts[0] += running[0] > 0
        return window_at(buffer, index, backing)

    with mock.patch.object(DataflowEngine, "run", counted_run), \
            mock.patch.object(ShiftBuffer3D, "window_at", counted_window_at):
        yield cuts


def fingerprint_us(config, fields):
    """Mean host microseconds per scalar-cycle machine fingerprint of
    one batched kernel run: each scalar cycle's outer and inner keys,
    timed around the engine's two signature methods."""
    spent = [0.0, 0]

    def timed(build, per_cycle):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start
                spent[1] += per_cycle
        return wrapper

    with mock.patch.object(
            DataflowEngine, "_ff_machine_signature",
            timed(DataflowEngine._ff_machine_signature, 1)), \
            mock.patch.object(
                DataflowEngine, "_ff_inner_signature",
                timed(DataflowEngine._ff_inner_signature, 0)):
        simulate_kernel(config, fields)
    return round(spent[0] / spent[1] * 1e6, 2)


def run_stencil_once(grid, block, *, batched, record=None):
    """One diffusion pass on the generic stencil machine, timed."""
    out = np.zeros(grid.interior_shape)
    tracker = MemoryPortTracker(enforce=True)
    interior, boundary = DiffusionKernel().window_fns(grid)
    start = time.perf_counter()
    stats = run_stencil_kernel(block, interior, boundary, out,
                               batched=batched, tracker=tracker,
                               record=record)
    return out, stats, tracker.reports(), time.perf_counter() - start


def replay_leg(grid, fields, scalar_u):
    """The three diffusion fields through one shared record, and
    forced-scalar; ``scalar_u`` is the stencil leg's forced-scalar ``u``
    pass.  Returns ``(field, batched pass, scalar pass)`` per field."""
    record = ControlRecord()
    passes = []
    for name in ("u", "v", "w"):
        block = getattr(fields, name)
        batched = run_stencil_once(grid, block, batched=True, record=record)
        scalar = (scalar_u if name == "u"
                  else run_stencil_once(grid, block, batched=False))
        passes.append((name, batched, scalar))
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nx", type=int, default=64)
    parser.add_argument("--ny", type=int, default=64)
    parser.add_argument("--nz", type=int, default=64)
    parser.add_argument("--chunk-width", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-batched-speedup", type=float, default=25.0,
                        help="fail below this batched-exact/scalar "
                             "speedup (default: %(default)s)")
    parser.add_argument("--max-resilience-overhead", type=float,
                        default=0.03,
                        help="fail when the fault-free resilient run is "
                             "more than this fraction slower than the "
                             "batched run (default: %(default)s)")
    parser.add_argument("--max-observe-overhead", type=float,
                        default=0.03,
                        help="fail when the run with a disabled tracer + "
                             "metric registry attached is more than this "
                             "fraction slower than the batched run "
                             "(default: %(default)s)")
    parser.add_argument("--overhead-repeats", type=int, default=9,
                        help="interleaved batched/resilient/observed "
                             "timing tuples for the overhead gates, "
                             "which gate on the median per-tuple ratio "
                             "(default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="32^3 grid + relaxed overhead gates (CI "
                             "smoke run)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="record file (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.overhead_repeats < 1:
        parser.error("--overhead-repeats must be >= 1")
    if args.smoke:
        args.nx, args.ny, args.nz = 32, 32, 32
        # Sub-second batched runs amplify timer noise; the 3% gates only
        # mean something on paper-scale runs.
        args.max_resilience_overhead = max(
            args.max_resilience_overhead, 0.5)
        args.max_observe_overhead = max(args.max_observe_overhead, 0.5)

    grid = Grid(nx=args.nx, ny=args.ny, nz=args.nz)
    fields = random_wind(grid, seed=args.seed, magnitude=2.0)
    config = (KernelConfig(grid=grid, chunk_width=args.chunk_width)
              if args.chunk_width else KernelConfig(grid=grid))
    label = f"{args.nx}x{args.ny}x{args.nz}"

    with counting_window_cuts() as kernel_cuts:
        scalar, t_scalar = run_once(config, fields, batched=False)
        batched, t_batched = run_once(config, fields)

    def resilient_kwargs():
        return {"fault_plan": FaultPlan([]), "retry": RetryPolicy()}

    def observed_kwargs():
        # Compiled in, switched off: the gate measures exactly the cost a
        # production run pays for carrying the observability plane.
        return {"tracer": Tracer(enabled=False, sample_every=64),
                "metrics": MetricRegistry(enabled=False)}

    def sampled_kwargs():
        return {"tracer": Tracer(sample_every=SAMPLED_STRIDE)}

    resilient, _ = run_once(config, fields, **resilient_kwargs())
    observed, _ = run_once(config, fields, **observed_kwargs())
    sampled, _ = run_once(config, fields, **sampled_kwargs())
    with counting_window_cuts() as stencil_cuts:
        st_scalar, st_scalar_stats, st_scalar_ports, t_st_scalar = \
            run_stencil_once(grid, fields.u, batched=False)
        st_batched, st_batched_stats, st_batched_ports, t_st_batched = \
            run_stencil_once(grid, fields.u, batched=True)
        replays = replay_leg(grid, fields, (st_scalar, st_scalar_stats,
                                            st_scalar_ports, t_st_scalar))
    cuts = {"kernel": kernel_cuts[0], "stencil": stencil_cuts[0]}
    # The overhead gates chase few-percent effects buried under
    # comparable wall-time noise: each tuple's ratios cancel the host's
    # drift between tuples, and the median drops the tuples a burst of
    # noise hit.  All three legs run batched — the production config.
    ratios, leg_times = overhead_ratios(
        config, fields, {"batched": dict, "resilient": resilient_kwargs,
                         "observed": observed_kwargs},
        args.overhead_repeats)
    overhead = statistics.median(ratios["resilient"]) - 1.0
    observe_overhead = statistics.median(ratios["observed"]) - 1.0
    sampled_ratios, sampled_times = overhead_ratios(
        config, fields, {"batched": dict, "sampled": sampled_kwargs},
        SAMPLED_PAIRS)
    sampled_overhead = statistics.median(sampled_ratios["sampled"]) - 1.0
    # Untimed, after every timed leg: tracing allocations slows a run.
    fp_us = fingerprint_us(config, fields)
    peak_bytes = traced_peak(config, fields)
    peak_per_cell = peak_bytes / grid.num_cells

    # The speedup is only meaningful if both legs are *the same
    # machine*; the scalar per-cycle loop is the reference.
    errors = []
    agg_scalar = scalar.aggregate_stats()
    agg_batched = batched.aggregate_stats()
    if batched.total_cycles != scalar.total_cycles:
        errors.append(f"batched exact cycle count differs: "
                      f"{scalar.total_cycles} vs {batched.total_cycles}")
    if agg_batched.fires != agg_scalar.fires:
        errors.append("batched exact per-stage fire counts differ")
    if agg_batched.stalls != agg_scalar.stalls:
        errors.append("batched exact per-stage stall counts differ")
    if not batched.sources.same_bits(scalar.sources):
        errors.append("sources not bit-identical under batched exact")
    if not resilient.sources.same_bits(scalar.sources):
        errors.append("sources differ under the resilient path")
    if not observed.sources.same_bits(scalar.sources):
        errors.append("sources differ with disabled observability")
    if resilient.total_cycles != scalar.total_cycles:
        errors.append("resilient path changed the cycle count")
    if resilient.chunk_retries != 0:
        errors.append("resilient path retried on a fault-free run")
    if observed.total_cycles != scalar.total_cycles:
        errors.append("disabled observability changed the cycle count")
    if not sampled.sources.same_bits(scalar.sources):
        errors.append("sources differ under a sampling tracer")
    if sampled.total_cycles != scalar.total_cycles:
        errors.append("a sampling tracer changed the cycle count")
    if st_batched.tobytes() != st_scalar.tobytes():
        errors.append("stencil output not bit-identical under batched exact")
    if st_batched_stats.cycles != st_scalar_stats.cycles:
        errors.append(f"stencil cycle count differs: "
                      f"{st_scalar_stats.cycles} vs {st_batched_stats.cycles}")
    if st_batched_stats.fires != st_scalar_stats.fires:
        errors.append("stencil per-stage fire counts differ")
    if st_batched_stats.stalls != st_scalar_stats.stalls:
        errors.append("stencil per-stage stall counts differ")
    if st_batched_ports != st_scalar_ports:
        errors.append("stencil memory-port reports differ")
    for name, (out, stats, ports, _), (s_out, s_stats, s_ports, _) \
            in replays:
        for what, same in (
                ("output", out.tobytes() == s_out.tobytes()),
                ("cycle count", stats.cycles == s_stats.cycles),
                ("fire counts", stats.fires == s_stats.fires),
                ("stall counts", stats.stalls == s_stats.stalls),
                ("high-water marks",
                 stats.stream_high_water == s_stats.stream_high_water),
                ("memory-port reports", ports == s_ports)):
            if not same:
                errors.append(f"replay leg, field {name}: {what} differ "
                              f"from forced scalar")
    if errors:
        for err in errors:
            print(f"MISMATCH: {err}", file=sys.stderr)
        return 1

    suite = BenchSuite(context={
        "grid": label,
        "chunk_width": config.chunk_width,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    rec_scalar = BenchRecord(
        name=f"kernel-{label}-scalar", wall_seconds=t_scalar,
        cycles=scalar.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"batched": False,
               "us_per_cycle": us_per_cycle(t_scalar, scalar.total_cycles),
               "window_cuts": cuts["kernel"]})
    rec_batched = BenchRecord(
        name=f"kernel-{label}-batched", wall_seconds=t_batched,
        cycles=batched.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"batched": True,
               "batched_windows": agg_batched.batched_windows,
               "batched_cycles": agg_batched.batched_cycles,
               "fingerprint_us": fp_us,
               "tracemalloc_peak_bytes": peak_bytes,
               "peak_bytes_per_cell": round(peak_per_cell, 1)})
    rec_resilient = BenchRecord(
        name=f"kernel-{label}-resilient",
        wall_seconds=statistics.median(leg_times["resilient"]),
        cycles=resilient.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"chunk_retries": resilient.chunk_retries,
               "overhead_vs_batched": round(overhead, 4),
               "timing_pairs": args.overhead_repeats})
    rec_observed = BenchRecord(
        name=f"kernel-{label}-observed",
        wall_seconds=statistics.median(leg_times["observed"]),
        cycles=observed.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"overhead_vs_batched": round(observe_overhead, 4),
               "timing_pairs": args.overhead_repeats,
               "instruments": "tracer+metrics, disabled"})
    agg_sampled = sampled.aggregate_stats()
    rec_sampled = BenchRecord(
        name=f"kernel-{label}-sampled",
        wall_seconds=statistics.median(sampled_times["sampled"]),
        cycles=sampled.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"overhead_vs_batched": round(sampled_overhead, 4),
               "timing_pairs": SAMPLED_PAIRS,
               "instruments": f"tracer, enabled, "
                              f"sample_every={SAMPLED_STRIDE}",
               "batched_windows": agg_sampled.batched_windows,
               "batched_cycles": agg_sampled.batched_cycles})
    rec_st_scalar = BenchRecord(
        name=f"stencil-diffusion-{label}-scalar", wall_seconds=t_st_scalar,
        cycles=st_scalar_stats.cycles, cells=grid.num_cells, mode="exact",
        extra={"batched": False,
               "us_per_cycle": us_per_cycle(t_st_scalar,
                                            st_scalar_stats.cycles),
               "window_cuts": cuts["stencil"]})
    rec_st_batched = BenchRecord(
        name=f"stencil-diffusion-{label}-batched",
        wall_seconds=t_st_batched, cycles=st_batched_stats.cycles,
        cells=grid.num_cells, mode="exact",
        extra={"batched": True,
               "batched_windows": st_batched_stats.batched_windows,
               "batched_cycles": st_batched_stats.batched_cycles})
    suite.add(rec_scalar)
    suite.add(rec_batched)
    suite.add(rec_resilient)
    suite.add(rec_observed)
    suite.add(rec_sampled)
    suite.add(rec_st_scalar)
    suite.add(rec_st_batched)
    for name, (_, stats, _, wall), _scalar in replays:
        suite.add(BenchRecord(
            name=f"stencil-diffusion-{label}-record-{name}",
            wall_seconds=wall, cycles=stats.cycles, cells=grid.num_cells,
            mode="exact",
            extra={"batched": True, "field": name,
                   "batched_windows": stats.batched_windows,
                   "batched_cycles": stats.batched_cycles,
                   "scalar_cycles": stats.cycles - stats.batched_cycles}))
    gain_batched = speedup(rec_scalar, rec_batched)
    gain_stencil = speedup(rec_st_scalar, rec_st_batched)
    suite.context["speedup_batched_exact"] = round(gain_batched, 2)
    suite.context["speedup_stencil_batched"] = round(gain_stencil, 2)
    suite.context["resilience_overhead"] = round(overhead, 4)
    suite.context["observe_overhead"] = round(observe_overhead, 4)
    suite.context["sampled_overhead"] = round(sampled_overhead, 4)
    path = suite.write(args.output)

    print(render_table(suite.records))
    print(f"\nforced-scalar cycle: kernel "
          f"{rec_scalar.extra['us_per_cycle']:.1f} us, stencil "
          f"{rec_st_scalar.extra['us_per_cycle']:.1f} us")
    print(f"batched exact speedup: {gain_batched:.2f}x "
          f"({agg_batched.batched_cycles}/{batched.total_cycles} cycles "
          f"batched in {agg_batched.batched_windows} windows)")
    print(f"stencil batched speedup: {gain_stencil:.2f}x "
          f"({st_batched_stats.batched_cycles}/{st_batched_stats.cycles} "
          f"cycles batched in {st_batched_stats.batched_windows} windows)")
    counts = {
        "kernel": (batched.total_cycles - agg_batched.batched_cycles,
                   agg_batched.batched_windows),
        "stencil": (st_batched_stats.cycles
                    - st_batched_stats.batched_cycles,
                    st_batched_stats.batched_windows),
    }
    ceilings = (MAX_BATCHED_COUNTS.get(label, {})
                if args.chunk_width is None else {})
    for leg, (scalar_cycles, windows) in counts.items():
        ceiling = ceilings.get(leg)
        print(f"batched {leg}: {scalar_cycles} scalar cycles, {windows} "
              f"windows" + (f" (ceiling {ceiling[0]}/{ceiling[1]})"
                            if ceiling else " (ungated)"))
    print(f"windows cut on the data path: kernel {cuts['kernel']}, "
          f"stencil {cuts['stencil']} (gate 0)")
    print(f"machine fingerprint: {fp_us:.1f} us per scalar cycle")
    for name, (_, stats, _, wall), _scalar in replays:
        print(f"replay leg, field {name}: {wall * 1e3:.1f} ms, "
              f"{stats.cycles - stats.batched_cycles} scalar cycles, "
              f"{stats.batched_windows} batched windows")
    print(f"batched tracemalloc peak: {peak_bytes / 2**20:.2f} MiB "
          f"({peak_per_cell:.0f} B per interior cell)")
    print(f"fault-free resilience overhead: {overhead * 100:+.2f}% "
          f"(median of {args.overhead_repeats} tuples)")
    print(f"disabled observability overhead: "
          f"{observe_overhead * 100:+.2f}% "
          f"(median of {args.overhead_repeats} tuples)")
    print(f"enabled sampling tracer overhead: "
          f"{sampled_overhead * 100:+.2f}% at sample_every="
          f"{SAMPLED_STRIDE} (median of {SAMPLED_PAIRS} pairs, "
          f"ungated)")
    print(f"records written to {path}")
    failed = False
    if gain_batched < args.min_batched_speedup:
        print(f"FAIL: batched exact speedup {gain_batched:.2f}x below "
              f"the {args.min_batched_speedup:.1f}x floor",
              file=sys.stderr)
        failed = True
    if gain_stencil < MIN_STENCIL_SPEEDUP:
        print(f"FAIL: stencil batched speedup {gain_stencil:.2f}x below "
              f"the {MIN_STENCIL_SPEEDUP:.1f}x floor", file=sys.stderr)
        failed = True
    for leg, (scalar_cycles, windows) in counts.items():
        ceiling = ceilings.get(leg)
        if ceiling and (scalar_cycles > ceiling[0] or windows > ceiling[1]):
            print(f"FAIL: batched {leg} leg ticked {scalar_cycles} scalar "
                  f"cycles in {windows} windows, above the "
                  f"{ceiling[0]}/{ceiling[1]} ceiling at {label}",
                  file=sys.stderr)
            failed = True
    for leg, count in cuts.items():
        if count:
            print(f"FAIL: the fault-free {leg} legs cut {count} windows "
                  f"while the engine ran; the data path must hand on "
                  f"runs of the blocks", file=sys.stderr)
            failed = True
    for name, (_, stats, _, _), _scalar in replays[1:]:
        if stats.batched_cycles != stats.cycles \
                or stats.batched_windows != 1:
            print(f"FAIL: replay leg, field {name} ticked "
                  f"{stats.cycles - stats.batched_cycles} scalar cycles in "
                  f"{stats.batched_windows} batched windows; a field that "
                  f"repeats the first one's machine must replay as one "
                  f"bulk step", file=sys.stderr)
            failed = True
    if peak_per_cell > MAX_BATCHED_BYTES_PER_CELL:
        print(f"FAIL: batched tracemalloc peak {peak_per_cell:.0f} B per "
              f"interior cell exceeds the {MAX_BATCHED_BYTES_PER_CELL} B "
              f"ceiling", file=sys.stderr)
        failed = True
    if overhead > args.max_resilience_overhead:
        print(f"FAIL: fault-free resilience overhead {overhead * 100:.2f}% "
              f"exceeds the {args.max_resilience_overhead * 100:.1f}% "
              f"budget", file=sys.stderr)
        failed = True
    if observe_overhead > args.max_observe_overhead:
        print(f"FAIL: disabled observability overhead "
              f"{observe_overhead * 100:.2f}% exceeds the "
              f"{args.max_observe_overhead * 100:.1f}% budget",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
