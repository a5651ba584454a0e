"""The fpga_shiftbuffer backend must wrap the direct path bit-identically.

Routing U280/Stratix 10 work through the backend seam is only safe if
every surface — space, cost model, lint, lowering — returns exactly what
calling the underlying objects directly returns.  These tests pin that
equivalence object-by-object (the golden CLI fixtures pin it end to
end).
"""

from repro.backend import get_backend
from repro.core.grid import Grid
from repro.hardware.devices import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.lint.runner import lint_kernel
from repro.tune.cost import CostModel
from repro.tune.space import ParameterSpace, TunePoint

GRID = Grid(nx=16, ny=64, nz=16)
BACKEND = get_backend("fpga_shiftbuffer")


class TestSpaceIdentity:
    def test_parameter_space_matches_direct_derivation(self):
        for device in (ALVEO_U280, STRATIX10_GX2800):
            via_backend = BACKEND.parameter_space(device, GRID)
            direct = ParameterSpace.derive(device, GRID)
            assert via_backend == direct
            assert list(via_backend.points()) == list(direct.points())

    def test_wide_precision_passthrough(self):
        wide = BACKEND.parameter_space(ALVEO_U280, GRID,
                                       wide_precision=True)
        assert wide == ParameterSpace.derive(ALVEO_U280, GRID,
                                             wide_precision=True)


class TestCostIdentity:
    def test_every_point_evaluates_identically(self):
        model = BACKEND.cost_model(ALVEO_U280, GRID)
        direct = CostModel(ALVEO_U280, GRID)
        space = ParameterSpace.derive(ALVEO_U280, GRID)
        for point in space.points():
            assert model.evaluate(point).to_dict() == \
                direct.evaluate(point).to_dict()

    def test_flops_scale_passthrough(self):
        point = next(iter(ParameterSpace.derive(ALVEO_U280, GRID).points()))
        scaled = BACKEND.cost_model(ALVEO_U280, GRID, flops_scale=2.5)
        direct = CostModel(ALVEO_U280, GRID, flops_scale=2.5)
        assert scaled.evaluate(point).to_dict() == \
            direct.evaluate(point).to_dict()

    def test_point_round_trips_through_dict(self):
        point = TunePoint(chunk_width=32, num_kernels=2, stream_depth=4,
                          precision="float64", memory="hbm2", x_chunks=16,
                          overlapped=True)
        assert BACKEND.point_from_dict(point.to_dict()) == point


class TestLintIdentity:
    def test_lint_matches_lint_kernel(self):
        config = KernelConfig(grid=GRID)
        via_backend = BACKEND.lint(GRID, device=ALVEO_U280,
                                   num_kernels=4, subject="s")
        direct = lint_kernel(config, ALVEO_U280, 4, subject="s")
        assert [d.code for d in via_backend.diagnostics] == \
            [d.code for d in direct.diagnostics]
        assert via_backend.to_dict() == direct.to_dict()


class TestLoweringIdentity:
    def test_structural_graph_matches_direct_build(self):
        config = KernelConfig(grid=GRID)
        via_backend = BACKEND.structural_graph(GRID, read_ii=2)
        direct = build_structural_graph(config, read_ii=2)
        assert [s.name for s in via_backend.stages] == \
            [s.name for s in direct.stages]
        assert {(c.src.name, c.src_port, c.dst.name, c.dst_port,
                 c.stream.depth)
                for c in via_backend.connections()} == \
            {(c.src.name, c.src_port, c.dst.name, c.dst_port,
              c.stream.depth)
                for c in direct.connections()}
