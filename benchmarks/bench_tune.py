"""Perf-regression harness for the tuner's cost model.

Prices every point of the derived 64^3 Alveo U280 space (864 points) two
ways: with a fresh :class:`~repro.tune.cost.CostModel` per point and with
one ``CostModel`` per search.  The legs differ only in whether the
``CostModel`` and its per-input sub-model results are shared; the
runtime session prices each distinct X-chunk width once in both, so
the per-point leg is not the cost of an unmemoised tuner.  It verifies
both legs produce identical ``Evaluation.to_dict()`` lists, and records
wall times, the speedup, and how often each leg called ``lint_kernel``,
``analyze_graph``, ``AdvectionSession.run`` and
``FPGADevice.invocation`` (the last counts the runtime session's
per-chunk pricing too), how many abstract runs the proofs interpreted
and how many host-schedule command queues were built, to
``benchmarks/BENCH_tune.json``.  The cost legs simulate no engine
cycles: their ``cycles`` is 0 and the points priced are in their
``extra``.

Count gates hold the per-search leg to one call per distinct input each
sub-model reads, computed from the space (:func:`distinct_inputs`): a
memo key that carried an input its sub-model never reads would only
call it more often, with every evaluation still identical, and fails
here.  The same gates hold the leg to one queue per schedule shape (4:
sequential, and overlapped over 8, 16 and 32 X chunks) and to one
interpretation per proof (3: no FIFO of the structural graph ever
fills, so the bounded run is the unbounded one).

A last record times one whole ``tune("u280", Grid(64, 64, 64), seed=0,
measure_top_k=2)``, the wall-clock benchmark's tune workload, and keeps
the sha256 of its ``TuneReport.to_json()`` and the engine cycles its
measured tier simulated.

Usage::

    PYTHONPATH=src python benchmarks/bench_tune.py              # 864 points
    PYTHONPATH=src python benchmarks/bench_tune.py --smoke \\
        --output /tmp/bench_tune.json                           # 216 points

``--smoke`` keeps only the narrowest chunk width in the cost legs (216
points, 3 structural graphs, 3 configs, 18 replica-count lint passes,
48 session runs over 4 queues).  Exit status is non-zero if the legs
disagree, a count misses its gate, or the per-search model is less
than ``MIN_SPEEDUP`` times faster.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import platform
import sys
import time
from typing import Any, Callable, Iterator

import repro.analyze.report as report_module
import repro.lint.rules_analyze as rules_analyze
import repro.runtime.overlap as overlap_module
import repro.tune.cost as cost_module
from repro.core.grid import Grid, GridDecomposition
from repro.hardware.device import FPGADevice
from repro.hardware.devices import ALVEO_U280
from repro.perf.bench import BenchRecord, BenchSuite
from repro.runtime.session import AdvectionSession
from repro.tune import tune
from repro.tune.space import ParameterSpace

DEFAULT_OUTPUT = "benchmarks/BENCH_tune.json"
#: About half the smoke speedup when it was set (17x; runs read 14-22x).
#: Smoke runs now read about 30x.
MIN_SPEEDUP = 8.0

#: (owner, attribute, count name) of every sub-model call counted; the
#: SA lint rules prove the graph themselves when not handed a proof.
#: ``interpret`` counts the proofs' abstract runs and ``queue`` the
#: command queues the schedule builders construct.
_COUNTED: tuple[tuple[Any, str, str], ...] = (
    (cost_module, "lint_kernel", "lint_kernel"),
    (cost_module, "analyze_graph", "analyze_graph"),
    (rules_analyze, "analyze_graph", "analyze_graph"),
    (AdvectionSession, "run", "session_run"),
    (FPGADevice, "invocation", "invocation"),
    (report_module, "interpret", "interpret"),
    (overlap_module, "CommandQueue", "queue"),
)


@contextlib.contextmanager
def counted_calls() -> Iterator[dict[str, int]]:
    """Count the cost model's sub-model calls while the block runs."""
    counts = {name: 0 for _, _, name in _COUNTED}

    def counting(name: str, original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    saved = [(owner, attr, getattr(owner, attr), name)
             for owner, attr, name in _COUNTED]
    try:
        for owner, attr, original, name in saved:
            setattr(owner, attr, counting(name, original))
        yield counts
    finally:
        for owner, attr, original, _ in saved:
            setattr(owner, attr, original)


def distinct_inputs(points, grid: Grid) -> dict[str, int]:
    """Calls one model per search makes: one per distinct input each
    sub-model reads.

    The lint gate runs the catalogue once per config and the
    replica-count rules once per (config, replicas); the structural
    graph and its proof are per depth; a host schedule leaves out the
    depth, and a sequential one the X chunk count too; an invocation
    reads chunk width, word width, replicas, memory and the grid it
    prices, and the model and its sessions share one price per input
    through the session memo: the whole grid, which the model and every
    sequential run price, and each distinct X-chunk width of an
    overlapped run.  A proof interprets one run: the structural
    graph's FIFOs never fill (high-water 2, and no depth is below 2).
    A command queue is built per schedule shape: sequential, or
    overlapped over one count of X chunks.
    """
    configs = {p.config(grid) for p in points}
    runs = {(p.chunk_width, p.num_kernels, p.precision, p.memory,
             p.x_chunks if p.overlapped else None, p.overlapped)
            for p in points}
    invocations = {(p.chunk_width, p.word_bytes, p.num_kernels, p.memory,
                    width)
                   for p in points
                   for width in ({stop - start for start, stop in
                                  GridDecomposition(grid, max(1, min(
                                      p.x_chunks, grid.nx // 2))).bounds}
                                 if p.overlapped else {grid.nx})}
    shapes = {len(GridDecomposition(
        grid, max(1, min(x_chunks, grid.nx // 2))).bounds)
        if overlapped else 0 for *_, x_chunks, overlapped in runs}
    return {
        "lint_kernel": len(configs) + len({(p.config(grid), p.num_kernels)
                                           for p in points}),
        "analyze_graph": len({p.stream_depth for p in points}),
        "session_run": len(runs),
        "invocation": len(invocations),
        "interpret": len({p.stream_depth for p in points}),
        "queue": len(shapes),
    }


def run_leg(points, grid: Grid, *, shared: bool):
    """Price ``points``; returns (dicts, wall seconds, call counts)."""
    with counted_calls() as counts:
        start = time.perf_counter()
        if shared:
            model = cost_module.CostModel(ALVEO_U280, grid)
            dicts = [model.evaluate(p).to_dict() for p in points]
        else:
            dicts = [cost_module.CostModel(ALVEO_U280, grid)
                     .evaluate(p).to_dict() for p in points]
        wall = time.perf_counter() - start
    return dicts, wall, dict(counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="narrowest chunk width only (CI smoke run)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="record file (default: %(default)s)")
    args = parser.parse_args(argv)

    grid = Grid(64, 64, 64)
    space = ParameterSpace.derive(ALVEO_U280, grid)
    if args.smoke:
        space = dataclasses.replace(space,
                                    chunk_widths=space.chunk_widths[:1])
    points = list(space.points())
    label = f"{grid.nx}x{grid.ny}x{grid.nz}-{len(points)}pts"

    # Warm-up: first-call costs land on neither leg.
    cost_module.CostModel(ALVEO_U280, grid).evaluate(points[0])
    fresh, t_fresh, n_fresh = run_leg(points, grid, shared=False)
    memo, t_memo, n_memo = run_leg(points, grid, shared=True)

    if fresh != memo:
        diverged = sum(a != b for a, b in zip(fresh, memo))
        print(f"MISMATCH: {diverged} of {len(points)} evaluations differ "
              "between the fresh and the shared cost model",
              file=sys.stderr)
        return 1

    start = time.perf_counter()
    report = tune("u280", grid, seed=0, measure_top_k=2)
    t_tune = time.perf_counter() - start

    suite = BenchSuite(context={
        "device": ALVEO_U280.name,
        "grid": f"{grid.nx}x{grid.ny}x{grid.nz}",
        "points": len(points),
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    for mode, wall, counts in (("model-per-point", t_fresh, n_fresh),
                               ("model-per-search", t_memo, n_memo)):
        suite.add(BenchRecord(
            name=f"cost-{label}-{mode}", wall_seconds=wall, cycles=0,
            cells=grid.num_cells, mode=mode,
            extra={"points": len(points),
                   "points_per_second": round(len(points) / wall, 1),
                   **{f"{name}_calls": n for name, n in counts.items()}}))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    suite.add(BenchRecord(
        name=f"tune-{grid.nx}x{grid.ny}x{grid.nz}-seed0", mode="tune",
        wall_seconds=t_tune, cells=grid.num_cells,
        cycles=sum(m.measured_cycles for m in report.measured),
        extra={"points": len(report.evaluations),
               "measured": len(report.measured),
               "report_sha256": digest}))
    gain = t_fresh / t_memo
    suite.context["speedup"] = round(gain, 2)
    path = suite.write(args.output)

    for record in suite.records[:2]:
        print(f"{record.name}: {record.wall_seconds:.3f} s, "
              f"{record.extra['points_per_second']:.1f} points/s")
    print(f"\nshared cost model speedup: {gain:.2f}x over {len(points)} "
          f"identical evaluations")
    gates = distinct_inputs(points, grid)
    missed = [name for name in gates if n_memo[name] != gates[name]]
    for name in n_fresh:
        print(f"{name} calls: {n_fresh[name]} -> {n_memo[name]} "
              f"(gate {gates[name]})")
    print(f"whole tune: {t_tune:.3f} s, {len(report.evaluations)} points, "
          f"report sha256 {digest[:16]}")
    print(f"records written to {path}")
    status = 0
    if missed:
        print("FAIL: the per-search model called "
              + ", ".join(f"{name} {n_memo[name]} times, not "
                          f"{gates[name]}" for name in missed),
              file=sys.stderr)
        status = 1
    if gain < MIN_SPEEDUP:
        print(f"FAIL: shared cost model speedup {gain:.2f}x below the "
              f"{MIN_SPEEDUP:.1f}x floor", file=sys.stderr)
        status = 1
    return status

if __name__ == "__main__":
    sys.exit(main())
