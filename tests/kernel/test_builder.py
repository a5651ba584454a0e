"""The Fig. 2 graph builder and the kernel's streaming order."""

import sys

import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import SourceSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig


@pytest.fixture
def setup():
    grid = Grid(nx=4, ny=6, nz=3)
    fields = random_wind(grid, seed=1)
    config = KernelConfig(grid=grid, chunk_width=3)
    chunk = config.chunk_plan().chunks[0]
    return grid, fields, config, chunk


def read_cells(setup):
    """Every cell the graph's read stage streams, in stream order."""
    grid, fields, config, chunk = setup
    graph = build_advection_graph(
        config, fields, chunk, AdvectionCoefficients.uniform(grid),
        SourceSet.zeros(grid))
    read = graph.stage("read_data")
    count = read.ff_fire_capacity(sys.maxsize)
    return read.fire_bulk(count, {}, 0).head_bulk("out", count).materialize()


class TestCellStream:
    def test_streaming_order_z_fastest(self, setup):
        grid, fields, config, chunk = setup
        cells = read_cells(setup)
        nz = grid.nz
        # First nz cells walk one column of the first (halo) X plane.
        block = fields.u[:, chunk.read_start:chunk.read_stop, :]
        for k in range(nz):
            assert cells[k][0] == block[0, 0, k]
        # The next column follows in Y.
        assert cells[nz][0] == block[0, 1, 0]

    def test_stream_length(self, setup):
        grid, fields, config, chunk = setup
        cells = read_cells(setup)
        assert len(cells) == (grid.nx + 2) * chunk.read_width * grid.nz

    def test_all_three_fields_packed(self, setup):
        grid, fields, config, chunk = setup
        u, v, w = read_cells(setup)[0]
        assert u == fields.u[0, chunk.read_start, 0]
        assert v == fields.v[0, chunk.read_start, 0]
        assert w == fields.w[0, chunk.read_start, 0]


class TestGraphStructure:
    def test_fig2_stage_names(self, setup):
        grid, fields, config, chunk = setup
        graph = build_advection_graph(
            config, fields, chunk, AdvectionCoefficients.uniform(grid),
            SourceSet.zeros(grid))
        names = {stage.name for stage in graph.stages}
        assert names == {"read_data", "shift_buffer", "replicate",
                         "advect_u", "advect_v", "advect_w", "write_data"}

    def test_fig2_stream_count(self, setup):
        """read->shift, shift->replicate, 3x replicate->advect,
        3x advect->write: eight streams."""
        grid, fields, config, chunk = setup
        graph = build_advection_graph(
            config, fields, chunk, AdvectionCoefficients.uniform(grid),
            SourceSet.zeros(grid))
        assert len(graph.streams) == 8

    def test_graph_validates(self, setup):
        grid, fields, config, chunk = setup
        graph = build_advection_graph(
            config, fields, chunk, AdvectionCoefficients.uniform(grid),
            SourceSet.zeros(grid))
        graph.validate()
        order = [s.name for s in graph.topological_order()]
        assert order.index("read_data") < order.index("shift_buffer")
        assert order.index("replicate") < order.index("advect_u")
        assert order.index("advect_w") < order.index("write_data")

    def test_stream_depths_follow_config(self, setup):
        grid, fields, config, chunk = setup
        graph = build_advection_graph(
            config, fields, chunk, AdvectionCoefficients.uniform(grid),
            SourceSet.zeros(grid))
        assert all(s.depth == config.stream_depth for s in graph.streams)
