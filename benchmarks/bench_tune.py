"""Perf-regression harness for the tuner's cost model.

Prices every point of the derived 64^3 Alveo U280 space (864 points) two
ways: with a fresh :class:`~repro.tune.cost.CostModel` per point and with
one ``CostModel`` per search.  The legs differ only in whether the
``CostModel`` and its per-input sub-model results are shared; the
runtime session prices each distinct X-chunk subgrid once in both, so
the per-point leg is not the cost of an unmemoised tuner.  It verifies
both legs produce identical ``Evaluation.to_dict()`` lists, and records
wall times, the speedup, and how often each leg called ``lint_kernel``,
``static_kernel_cycles``, ``analyze_graph``, ``AdvectionSession.run``
and ``FPGADevice.invocation`` (the last counts the runtime session's
per-chunk pricing too) to ``benchmarks/BENCH_tune.json``.  No engine
cycles are simulated: each record's ``cycles`` is 0 and the points
priced are in its ``extra``.

Usage::

    PYTHONPATH=src python benchmarks/bench_tune.py              # 864 points
    PYTHONPATH=src python benchmarks/bench_tune.py --smoke \\
        --output /tmp/bench_tune.json                           # 216 points

``--smoke`` keeps only the narrowest chunk width (216 points, 3
structural graphs, 18 lint inputs, 3 configs, 72 host schedules).  Exit status is non-zero if the legs disagree or the
per-search model is less than ``MIN_SPEEDUP`` times faster.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import platform
import sys
import time
from typing import Any, Callable, Iterator

import repro.lint.rules_analyze as rules_analyze
import repro.tune.cost as cost_module
from repro.core.grid import Grid
from repro.hardware.device import FPGADevice
from repro.hardware.devices import ALVEO_U280
from repro.perf.bench import BenchRecord, BenchSuite
from repro.runtime.session import AdvectionSession
from repro.tune.space import ParameterSpace

DEFAULT_OUTPUT = "benchmarks/BENCH_tune.json"
#: About half the typical smoke speedup (17x; runs read 14-22x).
MIN_SPEEDUP = 8.0

#: (owner, attribute, count name) of every sub-model call counted; the
#: SA lint rules prove the graph themselves when not handed a proof.
_COUNTED: tuple[tuple[Any, str, str], ...] = (
    (cost_module, "lint_kernel", "lint_kernel"),
    (cost_module, "static_kernel_cycles", "static_kernel_cycles"),
    (cost_module, "analyze_graph", "analyze_graph"),
    (rules_analyze, "analyze_graph", "analyze_graph"),
    (AdvectionSession, "run", "session_run"),
    (FPGADevice, "invocation", "invocation"),
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
    gain = t_fresh / t_memo
    suite.context["speedup"] = round(gain, 2)
    path = suite.write(args.output)

    for record in suite.records:
        print(f"{record.name}: {record.wall_seconds:.3f} s, "
              f"{record.extra['points_per_second']:.1f} points/s")
    print(f"\nshared cost model speedup: {gain:.2f}x over {len(points)} "
          f"identical evaluations")
    for name in n_fresh:
        print(f"{name} calls: {n_fresh[name]} -> {n_memo[name]}")
    print(f"records written to {path}")
    if gain < MIN_SPEEDUP:
        print(f"FAIL: shared cost model speedup {gain:.2f}x below the "
              f"{MIN_SPEEDUP:.1f}x floor", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
