"""Micro-benchmarks of the dataflow engine and the shift buffer.

These time the simulator itself (events per second), which bounds the
grid sizes the cycle-accurate path can handle and justifies the split
between cycle simulation (small grids) and the closed-form model
(paper-scale grids).
"""

import numpy as np

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel
from repro.kernel.stages import ShiftBufferStage
from repro.shiftbuffer.buffer3d import ShiftBuffer3D


def test_engine_throughput(benchmark):
    """Cycles per second of a simple three-stage pipeline."""

    def run():
        g = DataflowGraph("bench")
        src = g.add(SourceStage("src", range(2000)))
        fn = g.add(FunctionStage("fn", lambda x: x + 1, latency=4))
        sink = g.add(SinkStage("sink"))
        g.connect(src, "out", fn, "in")
        g.connect(fn, "out", sink, "in")
        return DataflowEngine(g).run()

    stats = benchmark(run)
    benchmark.extra_info["cycles_per_second"] = int(
        stats.cycles / benchmark.stats.stats.mean)


def test_shift_buffer_feed_rate(benchmark):
    """Values per second through one ShiftBuffer3D's scalar ``feed``.

    This is the register model (Fig. 3): slab, line buffers and 3x3
    windows shifted value by value, port bookkeeping included.  No
    engine stage runs ``feed``: the shift stage moves its buffers'
    position and cuts runs from the values it was fed, the tests'
    oracle checks those against this model, and
    ``test_shift_stage_scalar_fire_rate`` times the per-tick path.
    """
    block = np.random.default_rng(0).normal(size=(6, 34, 64))
    values = [float(v) for v in block.reshape(-1)]

    def run():
        buf = ShiftBuffer3D(6, 34, 64)
        windows = []
        for value in values:
            windows.extend(buf.feed(value))
        return windows

    windows = benchmark(run)
    fed = block.size
    benchmark.extra_info["feeds_per_second"] = int(
        fed / benchmark.stats.stats.mean)
    assert len(windows) == (6 - 2) * (34 - 2) * 63


def test_shift_stage_scalar_fire_rate(benchmark):
    """Cells per second through ``ShiftBufferStage.fire``.

    This is the per-tick path the cycle-accurate engine drives: a stage
    holding its three blocks takes each cell's position in turn, books
    its ports, moves the buffers' position and hands on its bundles as
    runs of the blocks.
    """
    rng = np.random.default_rng(0)
    blocks = tuple(rng.normal(size=(6, 34, 64)) for _ in range(3))
    cells = range(blocks[0].size)

    def run():
        stage = ShiftBufferStage("shift", blocks)
        bundles = []
        for cell in cells:
            bundles.extend(stage.fire(0, {"in": [cell]}).get("out", ()))
        return bundles

    bundles = benchmark(run)
    benchmark.extra_info["cells_per_second"] = int(
        len(cells) / benchmark.stats.stats.mean)
    assert len(bundles) == (6 - 2) * (34 - 2) * 63


def test_cycle_accurate_kernel_rate(benchmark):
    """Simulated kernel cells per wall second (full Fig. 2 graph)."""
    grid = Grid(nx=4, ny=6, nz=8)
    fields = random_wind(grid, seed=0)
    config = KernelConfig(grid=grid, chunk_width=4)

    result = benchmark(simulate_kernel, config, fields)
    benchmark.extra_info["simulated_cycles"] = result.total_cycles
    benchmark.extra_info["sim_cycles_per_second"] = int(
        result.total_cycles / benchmark.stats.stats.mean)
