"""Validation benchmark: cycle-accurate co-simulation vs the analytic model.

The Figs. 5-8 numbers at paper scale come from
``FPGADevice.invocation``: the closed-form cycle count of the slowest
replica plus the memory-bandwidth bound.  This benchmark cross-validates
that pricing at cycle level on a small grid: with ample memory the co-
simulated multi-kernel cycle count must equal ``invocation(...).cycles``
*exactly*, and starving the shared memory must produce the slowdown the
bandwidth bound predicts.
"""

import pytest

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.experiments.report import text_table
from repro.hardware import ALVEO_U280
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel


def test_cosim_vs_analytic_model(benchmark, save_result):
    grid = Grid(nx=12, ny=8, nz=6)
    fields = random_wind(grid, seed=0)
    config = KernelConfig(grid=grid, chunk_width=4)

    def run():
        rows = []
        for kernels in (1, 2, 3):
            sim = simulate_kernel(config, fields, num_kernels=kernels)
            model = ALVEO_U280.invocation(config, grid,
                                          num_kernels=kernels).cycles
            rows.append((kernels, sim.total_cycles, model,
                         sim.total_cycles == model))
        return rows

    rows = benchmark(run)
    table = text_table(
        ("kernels", "co-sim cycles", "model cycles", "exact match"), rows,
        title="Cycle-accurate co-simulation vs closed-form model")
    save_result("cosim_validation", table)
    print()
    print(table)
    assert all(match for *_, match in rows)


def test_memory_contention_slowdown(benchmark, save_result):
    """DDR-style contention at cycle level: rate R cells/cycle across K
    kernels bounds throughput at R, so cycles scale like K/R."""
    grid = Grid(nx=8, ny=6, nz=6)
    fields = random_wind(grid, seed=1)
    config = KernelConfig(grid=grid, chunk_width=6)

    def run():
        ample = simulate_kernel(config, fields, num_kernels=2)
        rows = [(float("inf"), ample.total_cycles, 1.0, 0.0)]
        for rate in (1.5, 1.0):
            starved = simulate_kernel(
                config, fields, num_kernels=2, memory_cells_per_cycle=rate)
            rows.append((rate, starved.total_cycles,
                         starved.total_cycles / ample.total_cycles,
                         starved.read_starvation_fraction))
        return rows

    rows = benchmark(run)
    table = text_table(
        ("cells/cycle", "cycles", "slowdown", "starvation"), rows,
        precision=3, title="Shared-memory contention at cycle level")
    save_result("cosim_contention", table)
    print()
    print(table)

    slowdowns = [row[2] for row in rows]
    assert slowdowns == sorted(slowdowns)  # lower rate, more cycles
    # Rate 1.0 with 2 kernels: steady-state reads serialise -> approaching
    # 2x, damped by the per-chunk pipeline fills.
    assert 1.4 < slowdowns[-1] <= 2.1
