"""Tests for the 27-point stencil window and its run view."""

import numpy as np
import pytest

from repro.shiftbuffer.buffer3d import (
    ShiftBuffer3D,
    emission_boxes,
    emission_center,
)
from repro.shiftbuffer.window import StencilWindow, WindowRun


def labelled_raw():
    """raw[s, dy, dz] = 100*s + 10*dy + dz for unambiguous addressing."""
    raw = np.zeros((3, 3, 3))
    for s in range(3):
        for dy in range(3):
            for dz in range(3):
                raw[s, dy, dz] = 100 * s + 10 * dy + dz
    return raw


class TestNormalWindow:
    def test_center_maps_to_middle_registers(self):
        w = StencilWindow(raw=labelled_raw(), center=(5, 5, 5))
        assert w.at(0, 0, 0) == 111.0  # s=1, dy=1, dz=1
        assert w.center_value == 111.0

    @pytest.mark.parametrize("offset,expected", [
        ((+1, 0, 0), 11.0),    # newer x plane -> s=0
        ((-1, 0, 0), 211.0),   # older x plane -> s=2
        ((0, +1, 0), 101.0),   # newer y -> dy=0
        ((0, -1, 0), 121.0),   # older y -> dy=2
        ((0, 0, +1), 110.0),   # newer z -> dz=0
        ((0, 0, -1), 112.0),   # older z -> dz=2
        ((+1, +1, +1), 0.0),
        ((-1, -1, -1), 222.0),
    ])
    def test_offset_addressing(self, offset, expected):
        w = StencilWindow(raw=labelled_raw(), center=(5, 5, 5))
        assert w.at(*offset) == expected

    def test_rejects_out_of_range_offsets(self):
        w = StencilWindow(raw=labelled_raw(), center=(0, 0, 0))
        with pytest.raises(ValueError):
            w.at(2, 0, 0)
        with pytest.raises(ValueError):
            w.at(0, -2, 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            StencilWindow(raw=np.zeros((3, 3)), center=(0, 0, 0))

    def test_as_array_layout(self):
        w = StencilWindow(raw=labelled_raw(), center=(0, 0, 0))
        arr = w.as_array()
        assert arr[1, 1, 1] == 111.0
        assert arr[2, 1, 1] == 11.0  # di=+1


class TestTopWindow:
    def test_center_at_dz0(self):
        w = StencilWindow(raw=labelled_raw(), center=(5, 5, 9), top=True)
        assert w.at(0, 0, 0) == 110.0  # dz shifted by one register
        assert w.at(0, 0, -1) == 111.0

    def test_dk_plus_one_rejected(self):
        w = StencilWindow(raw=labelled_raw(), center=(5, 5, 9), top=True)
        with pytest.raises(ValueError, match="stale"):
            w.at(0, 0, 1)

    def test_as_array_nan_at_stale_plane(self):
        w = StencilWindow(raw=labelled_raw(), center=(5, 5, 9), top=True)
        arr = w.as_array()
        assert np.all(np.isnan(arr[:, :, 2]))
        assert not np.any(np.isnan(arr[:, :, :2]))


def block_runs(shape=(5, 6, 7)):
    """A labelled block, its windows, and the full and top box runs."""
    block = np.arange(np.prod(shape), dtype=float).reshape(shape)
    nx, ny, nz = shape
    emissions = np.arange((nx - 2) * (ny - 2) * (nz - 1))
    _cx, _cy, _cz, tops = emission_center(emissions, ny, nz)
    buffer = ShiftBuffer3D(*shape)
    windows = [buffer.window_at(e, block) for e in emissions]
    (box,) = emission_boxes(0, len(emissions), ny, nz - 1)
    full = WindowRun(block, box[:5] + (nz - 1,))
    top = WindowRun(block, box[:4] + (nz - 1, nz), top=True)
    return block, windows, tops, full, top


class TestWindowRun:
    def test_top_run_raises_on_dk_plus_one_and_answers_dk_minus_one(self):
        _block, windows, tops, _full, top = block_runs()
        assert top.top
        with pytest.raises(ValueError, match="stale"):
            top.at(0, 0, 1)
        tops_alone = [w for w, t in zip(windows, tops) if t]
        for offset in ((0, 0, -1), (1, -1, 0), (-1, 1, -1)):
            np.testing.assert_array_equal(
                top.at(*offset).reshape(-1),
                [w.at(*offset) for w in tops_alone])

    def test_on_reads_another_block_through_the_same_centres(self):
        block, _windows, _tops, full, top = block_runs()
        other = -block
        for run in (full, top):
            moved = run.on(other)
            assert moved.center is run.center and moved.top == run.top
            np.testing.assert_array_equal(moved.at(1, 0, -1),
                                          -run.at(1, 0, -1))

    def test_on_rejects_a_block_of_another_shape(self):
        *_, full, _top = block_runs()
        with pytest.raises(ValueError, match="shape"):
            full.on(np.zeros((5, 6, 8)))


class TestWindowRunViews:
    def test_at_is_a_read_only_view_of_the_block(self):
        block, _windows, _tops, full, _top = block_runs()
        before = block.copy()
        values = full.at(1, -1, 0)
        assert np.shares_memory(values, block)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values += 1.0
        with pytest.raises(ValueError):
            values[0, 0, 0] = -1.0
        assert block.tobytes() == before.tobytes()

    def test_center_broadcasts_to_the_box(self):
        block, _windows, _tops, full, _top = block_runs()
        cx, cy, cz = full.center
        assert (cx.shape, cy.shape, cz.shape) == (
            (full.shape[0], 1, 1), (1, full.shape[1], 1),
            (1, 1, full.shape[2]))
        np.testing.assert_array_equal(full.at(-1, 0, 1),
                                      block[cx - 1, cy, cz + 1])
        assert full.at(0, 0, 0).shape == full.shape
