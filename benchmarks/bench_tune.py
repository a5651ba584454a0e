"""Perf-regression harness for the tuner's cost model.

Prices every point of the derived 64^3 Alveo U280 space (864 points) two
ways: with a fresh :class:`~repro.tune.cost.CostModel` per point and with
one ``CostModel`` per search.  The legs differ only in whether the
``CostModel`` and its per-input sub-model results are shared; the
runtime session prices each distinct X-chunk subgrid once in both, so
the per-point leg is not the cost of an unmemoised tuner.  It verifies
both legs produce identical ``Evaluation.to_dict()`` lists, and records
wall times, the speedup, and how often each leg called ``lint_kernel``,
``static_kernel_cycles`` and ``FPGADevice.invocation`` (the last counts
the runtime session's per-chunk pricing too) to
``benchmarks/BENCH_tune.json``.  No engine cycles are simulated: each
record's ``cycles`` is 0 and the points priced are in its ``extra``.

Usage::

    PYTHONPATH=src python benchmarks/bench_tune.py              # 864 points
    PYTHONPATH=src python benchmarks/bench_tune.py --smoke \\
        --output /tmp/bench_tune.json                           # 216 points

``--smoke`` keeps only the narrowest chunk width (216 points, 18 lint
inputs, 3 configs).  Exit status is non-zero if the legs disagree or the
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

import repro.tune.cost as cost_module
from repro.core.grid import Grid
from repro.hardware.device import FPGADevice
from repro.hardware.devices import ALVEO_U280
from repro.perf.bench import BenchRecord, BenchSuite
from repro.tune.space import ParameterSpace

DEFAULT_OUTPUT = "benchmarks/BENCH_tune.json"
#: About half the measured smoke speedup (6.1-7.5x).
MIN_SPEEDUP = 3.0


@contextlib.contextmanager
def counted_calls() -> Iterator[dict[str, int]]:
    """Count the cost model's sub-model calls while the block runs."""
    counts = {"lint_kernel": 0, "static_kernel_cycles": 0, "invocation": 0}
    patches = [(cost_module, "lint_kernel"),
               (cost_module, "static_kernel_cycles"),
               (FPGADevice, "invocation")]

    def counting(name: str, original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    saved = [(owner, name, getattr(owner, name)) for owner, name in patches]
    try:
        for owner, name, original in saved:
            setattr(owner, name, counting(name, original))
        yield counts
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


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
