"""The static kernel-cycle bound versus the cycle-accurate simulator."""

import pytest

from repro.analyze import interpret, static_kernel_cycles
from repro.analyze.kernel import static_kernel_cycles as direct_import
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel


class TestStaticKernelCycles:
    def test_sums_one_interp_per_distinct_chunk_width(self):
        grid = Grid(nx=6, ny=9, nz=5)
        config = KernelConfig(grid=grid, chunk_width=4)
        graph = build_structural_graph(config)
        plan = config.chunk_plan()
        expected = sum(
            interpret(graph, (grid.nx + 2) * grid.nz
                      * chunk.read_width).cycles
            for chunk in plan.chunks)
        assert static_kernel_cycles(config) == expected

    @pytest.mark.parametrize("dims", [(6, 9, 5), (8, 12, 6)])
    def test_tracks_the_measured_count_to_within_one_cycle_per_chunk(
            self, dims):
        grid = Grid(nx=dims[0], ny=dims[1], nz=dims[2])
        config = KernelConfig(grid=grid, chunk_width=4)
        fields = random_wind(grid, seed=3)
        measured = simulate_kernel(config, fields).total_cycles
        static = static_kernel_cycles(config)
        chunks = len(config.chunk_plan().chunks)
        # The structural Fig. 2 graph is read as a unit-rate control
        # machine; the real kernel's last column top emits a second
        # bundle, one more cycle per chunk on top of it.
        assert measured - static == chunks
        assert abs(measured - static) / measured < 0.01

    def test_a_given_graph_is_read_not_rebuilt(self, monkeypatch):
        import repro.analyze.kernel as analyze_kernel

        config = KernelConfig(grid=Grid(nx=6, ny=9, nz=5), chunk_width=4)
        graph = build_structural_graph(config, read_ii=2)
        expected = static_kernel_cycles(config, read_ii=2)

        def no_build(*_args, **_kwargs):
            raise AssertionError("built a structural graph")

        monkeypatch.setattr(analyze_kernel, "build_structural_graph",
                            no_build)
        assert static_kernel_cycles(config, graph=graph) == expected

    def test_grid_override_rescales_the_bound(self):
        config = KernelConfig(grid=Grid(nx=6, ny=9, nz=5), chunk_width=4)
        small = static_kernel_cycles(config)
        large = static_kernel_cycles(config, grid=Grid(nx=12, ny=9, nz=5))
        assert large > small

    def test_read_ii_throttles_the_bound(self):
        config = KernelConfig(grid=Grid(nx=6, ny=9, nz=5), chunk_width=4)
        assert (static_kernel_cycles(config, read_ii=2)
                > static_kernel_cycles(config))

    def test_package_export(self):
        assert static_kernel_cycles is direct_import


class TestTuneIntegration:
    def test_evaluation_carries_the_proved_bound(self):
        from repro.hardware import ALVEO_U280
        from repro.tune.cost import CostModel
        from repro.tune.space import TunePoint

        grid = Grid(nx=8, ny=12, nz=6)
        model = CostModel(ALVEO_U280, grid)
        point = TunePoint(chunk_width=4, num_kernels=1, stream_depth=4,
                          precision="float64", memory="hbm2", x_chunks=4,
                          overlapped=True)
        evaluation = model.evaluate(point)
        assert evaluation.feasible
        assert evaluation.static_cycles == static_kernel_cycles(
            point.config(grid))
        assert evaluation.to_dict()["static_cycles"] > 0

    def test_measured_result_reports_the_static_error(self):
        from repro.hardware import ALVEO_U280
        from repro.tune.cost import CostModel
        from repro.tune.measure import measure_candidates
        from repro.tune.space import TunePoint

        grid = Grid(nx=8, ny=12, nz=6)
        model = CostModel(ALVEO_U280, grid)
        point = TunePoint(chunk_width=4, num_kernels=1, stream_depth=4,
                          precision="float64", memory="hbm2", x_chunks=4,
                          overlapped=True)
        [result] = measure_candidates([model.evaluate(point)], grid, seed=0)
        assert result.static_cycles > 0
        # The proof tracks the measurement far tighter than 1%.
        assert result.static_error < 0.01
        assert "static_error" in result.to_dict()
