"""Cycle-accurate kernel simulation: numerics and machine behaviour."""

import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.errors import ConfigurationError
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel


@pytest.fixture(scope="module")
def sim_setup():
    grid = Grid(nx=5, ny=7, nz=5)
    fields = random_wind(grid, seed=17, magnitude=2.0)
    coeffs = AdvectionCoefficients.isothermal(grid)
    config = KernelConfig(grid=grid, chunk_width=3)
    result = simulate_kernel(config, fields, coeffs)
    return grid, fields, coeffs, config, result


class TestNumerics:
    def test_bitwise_equal_to_reference(self, sim_setup):
        grid, fields, coeffs, config, result = sim_setup
        assert result.sources.max_abs_difference(
            advect_reference(fields, coeffs)) == 0.0

    def test_all_chunks_ran(self, sim_setup):
        _, _, _, config, result = sim_setup
        assert len(result.chunk_stats) == config.chunk_plan().num_chunks


class TestMachineBehaviour:
    def test_port_budget_enforced_during_run(self, sim_setup):
        _, _, _, _, result = sim_setup
        assert result.port_tracker.worst_case <= 2

    def test_steady_state_one_result_per_cycle(self):
        """With II=1 the advect stages fire once per cycle in steady state."""
        grid = Grid(nx=4, ny=4, nz=8)
        fields = random_wind(grid, seed=2)
        config = KernelConfig(grid=grid, chunk_width=64)
        result = simulate_kernel(config, fields)
        stats = result.chunk_stats[0]
        feeds = (grid.nx + 2) * (grid.ny + 2) * grid.nz
        # Shift buffer consumes one value per cycle: fires == feeds, and the
        # run is only slightly longer than the feed count.
        assert stats.fires["shift_buffer"] == feeds
        assert stats.cycles <= feeds + 60

    def test_uram_ii2_halves_throughput(self):
        """Section III-A: URAM's read-write dependency forces II=2, halving
        performance — 'as such we considered it unacceptable'."""
        grid = Grid(nx=4, ny=4, nz=6)
        fields = random_wind(grid, seed=2)
        fast = simulate_kernel(KernelConfig(grid=grid, chunk_width=64),
                               fields)
        slow = simulate_kernel(
            KernelConfig(grid=grid, chunk_width=64, shift_buffer_ii=2),
            fields)
        assert slow.total_cycles == pytest.approx(2 * fast.total_cycles,
                                                  rel=0.15)
        # And the numerics are unharmed.
        assert slow.sources.max_abs_difference(fast.sources) == 0.0

    def test_memory_starved_read_slows_kernel(self):
        grid = Grid(nx=4, ny=4, nz=6)
        fields = random_wind(grid, seed=2)
        config = KernelConfig(grid=grid, chunk_width=64)
        fast = simulate_kernel(config, fields, read_ii=1)
        slow = simulate_kernel(config, fields, read_ii=2)
        assert slow.total_cycles > 1.8 * fast.total_cycles

    def test_runtime_seconds(self, sim_setup):
        _, _, _, _, result = sim_setup
        assert result.runtime_seconds(300e6) == pytest.approx(
            result.total_cycles / 300e6)
        with pytest.raises(ValueError):
            result.runtime_seconds(0.0)

    def test_cells_per_cycle_below_one(self, sim_setup):
        _, _, _, _, result = sim_setup
        assert 0.0 < result.cells_per_cycle < 1.0

    def test_grid_mismatch_rejected(self):
        config = KernelConfig(grid=Grid(nx=4, ny=4, nz=4))
        fields = random_wind(Grid(nx=5, ny=4, nz=4), seed=0)
        with pytest.raises(ConfigurationError, match="fields are on grid"):
            simulate_kernel(config, fields)

    def test_aggregate_stats_sums_chunks(self):
        grid = Grid(nx=8, ny=10, nz=6)
        fields = random_wind(grid, seed=5)
        result = simulate_kernel(KernelConfig(grid=grid, chunk_width=4),
                                 fields)
        agg = result.aggregate_stats()
        assert agg.cycles == result.total_cycles
        assert agg.fires["shift_buffer"] == sum(
            s.fires["shift_buffer"] for s in result.chunk_stats)
