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
    """Every cell the graph's read stage streams, in stream order, and
    the first bundle its shift stage hands on for them."""
    grid, fields, config, chunk = setup
    graph = build_advection_graph(
        config, fields, chunk, AdvectionCoefficients.uniform(grid),
        SourceSet.zeros(grid))
    read, shift = graph.stage("read_data"), graph.stage("shift_buffer")
    count = read.ff_fire_capacity(sys.maxsize)
    cells = read.fire_bulk(count, {}, 0).head_bulk("out", count)
    fired = shift.fire_bulk(count, {"in": cells}, 0)
    run = fired.head_bulk("out", fired.producing_firings)
    return cells.materialize(), run.bundle_at(run.start)


class TestCellStream:
    def test_streaming_order_z_fastest(self, setup):
        grid, fields, config, chunk = setup
        cells, (first, _v, _w) = read_cells(setup)
        assert cells == list(range(len(cells)))
        # The first window, centred on (1, 1, 1), holds the first three
        # cells, the foot of one column of the first (halo) X plane, at
        # dk = -1..1.
        block = fields.u[:, chunk.read_start:chunk.read_stop, :]
        for k in range(3):
            assert first.at(-1, -1, k - 1) == block[0, 0, k]
        # The next column follows in Y.
        assert first.at(-1, 0, -1) == block[0, 1, 0]

    def test_stream_length(self, setup):
        grid, fields, config, chunk = setup
        cells, _first = read_cells(setup)
        assert len(cells) == (grid.nx + 2) * chunk.read_width * grid.nz

    def test_all_three_fields_packed(self, setup):
        grid, fields, config, chunk = setup
        _cells, (wu, wv, ww) = read_cells(setup)
        assert wu.at(-1, -1, -1) == fields.u[0, chunk.read_start, 0]
        assert wv.at(-1, -1, -1) == fields.v[0, chunk.read_start, 0]
        assert ww.at(-1, -1, -1) == fields.w[0, chunk.read_start, 0]


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
