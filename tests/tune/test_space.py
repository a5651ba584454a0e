"""Parameter space: derivation bounds, indexing, neighbours."""

import pytest

from repro.backend.versal_aie import VersalAieBackend, VersalSpace
from repro.core.grid import Grid
from repro.errors import TuneError
from repro.hardware.devices import ALVEO_U280, STRATIX10_GX2800
from repro.shiftbuffer.chunking import HALO
from repro.tune.space import ParameterSpace, TunePoint

GRID = Grid(nx=32, ny=64, nz=32)


def small_space() -> ParameterSpace:
    return ParameterSpace(
        chunk_widths=(16, 32),
        num_kernels=(1, 2, 3),
        stream_depths=(2, 4),
        precisions=("float64",),
        memories=("hbm2", "ddr"),
        x_chunks=(8, 16),
        overlapped=(False, True),
    )


class TestTunePoint:
    def test_key_is_canonical_and_injective(self):
        space = small_space()
        keys = [p.key() for p in space.points()]
        assert len(keys) == len(set(keys)) == space.size

    def test_word_bytes_follows_precision(self):
        p = TunePoint(chunk_width=16, num_kernels=1, stream_depth=2,
                      precision="float32", memory="hbm2", x_chunks=8,
                      overlapped=True)
        assert p.word_bytes == 4
        assert p.format.bits == 32

    def test_unknown_precision_rejected(self):
        with pytest.raises(TuneError, match="unknown precision"):
            TunePoint(chunk_width=16, num_kernels=1, stream_depth=2,
                      precision="float16", memory="hbm2", x_chunks=8,
                      overlapped=True)

    def test_clock_degrades_with_replicas_on_stratix(self):
        def at(n):
            return TunePoint(chunk_width=16, num_kernels=n, stream_depth=2,
                             precision="float64", memory="ddr", x_chunks=8,
                             overlapped=True).clock_mhz(STRATIX10_GX2800)

        clocks = [at(n) for n in (1, 2, 3, 4, 5)]
        assert clocks[0] == 398.0
        assert clocks[-1] == 250.0
        assert clocks == sorted(clocks, reverse=True)

    def test_config_carries_geometry(self):
        p = TunePoint(chunk_width=32, num_kernels=2, stream_depth=4,
                      precision="float64", memory="hbm2", x_chunks=8,
                      overlapped=False)
        config = p.config(GRID)
        assert config.chunk_width == 32
        assert config.stream_depth == 4
        assert config.word_bytes == 8


class TestParameterSpace:
    def test_size_matches_enumeration(self):
        space = small_space()
        assert space.size == 2 * 3 * 2 * 1 * 2 * 2 * 2
        assert len(list(space.points())) == space.size

    def test_point_at_matches_points_order(self):
        space = small_space()
        listed = list(space.points())
        assert [space.point_at(i) for i in range(space.size)] == listed

    def test_point_at_bounds(self):
        space = small_space()
        with pytest.raises(TuneError, match="outside space"):
            space.point_at(space.size)
        with pytest.raises(TuneError, match="outside space"):
            space.point_at(-1)

    def test_neighbours_are_single_axis_moves(self):
        space = small_space()
        point = space.point_at(space.size // 2)
        for neighbour in space.neighbours(point):
            diffs = [
                name for name in point.to_dict()
                if getattr(neighbour, name) != getattr(point, name)
            ]
            assert len(diffs) == 1

    def test_neighbours_of_corner_stay_inside(self):
        space = small_space()
        corner = space.point_at(0)
        neighbours = space.neighbours(corner)
        listed = set(space.points())
        assert neighbours
        assert all(n in listed for n in neighbours)

    def test_foreign_point_rejected(self):
        space = small_space()
        foreign = TunePoint(chunk_width=128, num_kernels=1, stream_depth=2,
                            precision="float64", memory="hbm2", x_chunks=8,
                            overlapped=True)
        with pytest.raises(TuneError, match="chunk_width axis"):
            space.neighbours(foreign)

    def test_empty_axis_rejected(self):
        with pytest.raises(TuneError, match="empty"):
            ParameterSpace(chunk_widths=(), num_kernels=(1,),
                           stream_depths=(2,), precisions=("float64",),
                           memories=("hbm2",), x_chunks=(8,),
                           overlapped=(True,))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(TuneError, match="duplicates"):
            ParameterSpace(chunk_widths=(16, 16), num_kernels=(1,),
                           stream_depths=(2,), precisions=("float64",),
                           memories=("hbm2",), x_chunks=(8,),
                           overlapped=(True,))


class TestDerive:
    def test_chunk_widths_respect_planner_floor_and_ny(self):
        space = ParameterSpace.derive(ALVEO_U280, GRID)
        assert all(HALO < w <= GRID.ny for w in space.chunk_widths)

    def test_kernel_axis_reaches_device_fit(self):
        space = ParameterSpace.derive(ALVEO_U280, GRID)
        assert max(space.num_kernels) >= 6
        space = ParameterSpace.derive(STRATIX10_GX2800, GRID)
        assert max(space.num_kernels) >= 5

    def test_memories_come_from_the_device_catalog(self):
        space = ParameterSpace.derive(ALVEO_U280, GRID)
        assert set(space.memories) <= set(ALVEO_U280.memories)
        assert space.memories[0] == "hbm2"  # preference order

    def test_precision_axis_is_opt_in(self):
        assert ParameterSpace.derive(ALVEO_U280, GRID).precisions == (
            "float64",)
        wide = ParameterSpace.derive(ALVEO_U280, GRID, wide_precision=True)
        assert set(wide.precisions) == {"float64", "float32", "bfloat16"}

    def test_tiny_ny_falls_back_to_single_width(self):
        tiny = Grid(nx=4, ny=4, nz=4)
        space = ParameterSpace.derive(ALVEO_U280, tiny)
        assert len(space.chunk_widths) == 1
        assert space.chunk_widths[0] > HALO


def value_neighbours(space, point) -> list:
    """Single-axis moves built from axis values: axes in field order,
    the step down before the step up (the reference for index walks)."""
    out = []
    values = point.to_dict()
    for name, axis in space.axes().items():
        at = axis.index(values[name])
        for step in (-1, 1):
            if 0 <= at + step < len(axis):
                out.append(space._make_point(**{**values,
                                                name: axis[at + step]}))
    return out


class TestIndexWalk:
    @pytest.mark.parametrize("space", [
        small_space(),
        ParameterSpace.derive(ALVEO_U280, GRID),
        ParameterSpace.derive(STRATIX10_GX2800, GRID, wide_precision=True),
        VersalSpace.derive(VersalAieBackend().resolve_device(), GRID),
    ], ids=["small", "u280", "stratix10-wide", "versal"])
    def test_indices_name_the_value_walk(self, space):
        for index in range(space.size):
            point = space.point_at(index)
            assert space.index_of(point) == index
            moves = space.neighbour_indices(index)
            assert [space.point_at(i) for i in moves] == (
                value_neighbours(space, point))
            assert space.neighbours(point) == value_neighbours(space, point)

    def test_foreign_point_has_no_index(self):
        foreign = TunePoint(chunk_width=128, num_kernels=1, stream_depth=2,
                            precision="float64", memory="hbm2", x_chunks=8,
                            overlapped=True)
        with pytest.raises(TuneError, match="chunk_width axis"):
            small_space().index_of(foreign)

    def test_index_outside_the_space_has_no_neighbours(self):
        space = small_space()
        for index in (-1, space.size):
            with pytest.raises(TuneError, match="outside space"):
                space.neighbour_indices(index)
