"""The closed-form cycle model must equal the cycle-accurate simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import start_cycles
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.kernel.simulate import simulate_kernel


class TestAgainstSimulator:
    @pytest.mark.parametrize("dims,chunk", [
        ((5, 6, 4), 64), ((6, 11, 5), 4), ((4, 9, 3), 3), ((7, 8, 6), 8),
        ((3, 3, 3), 2),
    ])
    def test_exact_match_default_latencies(self, dims, chunk):
        grid = Grid(nx=dims[0], ny=dims[1], nz=dims[2])
        config = KernelConfig(grid=grid, chunk_width=chunk)
        sim = simulate_kernel(config, random_wind(grid, seed=1))
        assert KernelCycleModel(config).cycles() == sim.total_cycles

    @pytest.mark.parametrize("ml,al", [(16, 28), (1, 1), (8, 14), (4, 52)])
    def test_exact_match_latency_sweep(self, ml, al):
        grid = Grid(nx=5, ny=6, nz=4)
        config = KernelConfig(grid=grid, chunk_width=64, memory_latency=ml,
                              advect_latency=al)
        sim = simulate_kernel(config, random_wind(grid, seed=1))
        assert KernelCycleModel(config).cycles() == sim.total_cycles

    def test_ii2_tracked_within_tolerance(self):
        grid = Grid(nx=5, ny=6, nz=4)
        config = KernelConfig(grid=grid, chunk_width=64, shift_buffer_ii=2)
        sim = simulate_kernel(config, random_wind(grid, seed=1))
        model = KernelCycleModel(config).cycles()
        assert model == sim.total_cycles

    def test_read_ii_tracked(self):
        grid = Grid(nx=5, ny=6, nz=4)
        config = KernelConfig(grid=grid, chunk_width=64)
        sim = simulate_kernel(config, random_wind(grid, seed=1), read_ii=2)
        model = KernelCycleModel(config, read_ii=2).cycles()
        assert model == sim.total_cycles


@st.composite
def kernel_configs(draw):
    ny = draw(st.integers(2, 10))
    grid = Grid(nx=draw(st.integers(1, 6)), ny=ny, nz=draw(st.integers(3, 7)))
    config = KernelConfig(
        grid=grid, chunk_width=draw(st.integers(2, ny + 2)),
        stream_depth=draw(st.integers(2, 5)),
        shift_buffer_ii=draw(st.integers(1, 2)),
        advect_latency=draw(st.integers(1, 30)),
        memory_latency=draw(st.integers(1, 20)))
    return config, draw(st.integers(1, 3))


@settings(max_examples=25, deadline=None)
@given(kernel_configs())
def test_the_derived_fill_is_exact_at_every_ii(params):
    """The closed form equals the simulator at every read and
    shift-buffer II, and its per-chunk start cycle is the write stage's
    proved start on the structural graph."""
    config, read_ii = params
    model = KernelCycleModel(config, read_ii=read_ii)
    sim = simulate_kernel(config, random_wind(config.grid, seed=1),
                          read_ii=read_ii)
    assert model.cycles() == sim.total_cycles
    graph = build_structural_graph(config, read_ii=read_ii)
    assert model.start_cycle == start_cycles(graph)["write_data"][1]


class TestBreakdown:
    def test_components_sum(self):
        config = KernelConfig(grid=Grid(nx=8, ny=32, nz=16), chunk_width=8)
        bd = KernelCycleModel(config).breakdown()
        assert bd.total == bd.steady_cycles + bd.fill_cycles
        assert bd.chunks == 4
        assert 0.0 < bd.fill_fraction < 1.0

    def test_effective_ii_is_max(self):
        config = KernelConfig(grid=Grid(nx=4, ny=4, nz=4), shift_buffer_ii=2)
        assert KernelCycleModel(config, read_ii=3).effective_ii == 3
        assert KernelCycleModel(config, read_ii=1).effective_ii == 2

    def test_rejects_bad_read_ii(self):
        config = KernelConfig(grid=Grid(nx=4, ny=4, nz=4))
        with pytest.raises(ValueError):
            KernelCycleModel(config, read_ii=0)

    def test_runtime_scales_with_clock(self):
        """A device prices the model's cycles at its achieved clock."""
        grid = Grid(nx=8, ny=8, nz=8)
        config = KernelConfig(grid=grid)
        for device in (ALVEO_U280, STRATIX10_GX2800):
            estimate = device.invocation(config, grid)
            assert estimate.compute_seconds == \
                KernelCycleModel(config).cycles() / estimate.clock_hz


def cells_per_cycle(grid: Grid) -> float:
    """Interior cells per modelled cycle (1 is the II=1 ideal)."""
    return grid.num_cells / KernelCycleModel(KernelConfig(grid=grid)).cycles()


class TestEfficiency:
    def test_large_grid_efficiency_near_one(self):
        """Paper-scale grids run at >95% of one cell per cycle: the whole
        point of the II=1 shift-buffer design."""
        assert cells_per_cycle(Grid.from_cells(16 * 1024 * 1024)) > 0.95

    def test_small_grid_efficiency_lower(self):
        assert cells_per_cycle(Grid(nx=4, ny=4, nz=4)) < \
            cells_per_cycle(Grid(nx=64, ny=64, nz=64))

    def test_narrow_chunks_cost_efficiency(self):
        grid = Grid(nx=32, ny=64, nz=16)
        wide = KernelCycleModel(KernelConfig(grid=grid, chunk_width=64))
        narrow = KernelCycleModel(KernelConfig(grid=grid, chunk_width=2))
        assert narrow.cycles() > wide.cycles()

    def test_alternate_grid_argument(self):
        config = KernelConfig(grid=Grid(nx=4, ny=4, nz=4))
        other = Grid(nx=8, ny=8, nz=8)
        model = KernelCycleModel(config)
        assert model.cycles(other) > model.cycles()
