"""The proved kernel cycle count versus the engine and the closed form."""

import pytest

from repro.analyze import interpret, static_kernel_cycles
from repro.analyze.kernel import static_kernel_cycles as direct_import
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.kernel.builder import build_chunk_graph
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel


class TestStaticKernelCycles:
    def test_sums_one_interp_per_distinct_chunk_width(self):
        grid = Grid(nx=6, ny=9, nz=5)
        config = KernelConfig(grid=grid, chunk_width=4)
        expected = sum(
            interpret(build_chunk_graph(config.for_grid(
                Grid(grid.nx, chunk.read_width - 2, grid.nz))),
                (grid.nx + 2) * grid.nz * chunk.read_width).cycles
            for chunk in config.chunk_plan().chunks)
        assert static_kernel_cycles(config) == expected

    @pytest.mark.parametrize("dims", [(6, 9, 5), (8, 12, 6)])
    def test_equals_the_measured_count(self, dims):
        grid = Grid(nx=dims[0], ny=dims[1], nz=dims[2])
        config = KernelConfig(grid=grid, chunk_width=4)
        fields = random_wind(grid, seed=3)
        measured = simulate_kernel(config, fields).total_cycles
        # The proof reads every stage's emission schedule, the second
        # bundle of each column top included.
        assert static_kernel_cycles(config) == measured

    def test_grid_override_rescales_the_bound(self):
        config = KernelConfig(grid=Grid(nx=6, ny=9, nz=5), chunk_width=4)
        small = static_kernel_cycles(config)
        large = static_kernel_cycles(config.for_grid(Grid(nx=12, ny=9,
                                                          nz=5)))
        assert large > small

    def test_read_ii_throttles_the_bound(self):
        config = KernelConfig(grid=Grid(nx=6, ny=9, nz=5), chunk_width=4)
        assert (static_kernel_cycles(config, read_ii=2)
                > static_kernel_cycles(config))

    def test_package_export(self):
        assert static_kernel_cycles is direct_import


class TestTuneIntegration:
    POINT = dict(chunk_width=4, num_kernels=1, stream_depth=4,
                 precision="float64", memory="hbm2", x_chunks=4,
                 overlapped=True)

    def test_evaluation_carries_the_proved_bound(self):
        from repro.hardware import ALVEO_U280
        from repro.tune.cost import CostModel
        from repro.tune.space import TunePoint

        grid = Grid(nx=8, ny=12, nz=6)
        point = TunePoint(**self.POINT)
        evaluation = CostModel(ALVEO_U280, grid).evaluate(point)
        assert evaluation.feasible
        assert evaluation.analytic_cycles == static_kernel_cycles(
            point.config(grid))

    def test_measured_cycles_equal_the_proved_count(self):
        from repro.hardware import ALVEO_U280
        from repro.tune.cost import CostModel
        from repro.tune.measure import measure_candidates, proxy_grid
        from repro.tune.space import TunePoint

        grid = Grid(nx=8, ny=12, nz=6)
        point = TunePoint(**self.POINT)
        [result] = measure_candidates(
            [CostModel(ALVEO_U280, grid).evaluate(point)], grid, seed=0)
        proved = static_kernel_cycles(point.config(proxy_grid(grid, point)))
        assert result.measured_cycles == result.analytic_cycles == proved
        assert result.relative_error == 0.0
