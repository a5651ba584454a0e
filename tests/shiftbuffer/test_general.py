"""The paper's shift buffer as a general-purpose radius-1 stencil source.

The generic stencil machine (:mod:`repro.kernel.generic`) streams one
block through the kernel's shift stage built with one buffer and
``tops=False``, which forwards only full windows; the column-top window
is the advection kernel's one-sided special case.  These tests pin what
that shift stage forwards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.bulk import ChainBulk, ListBulk
from repro.errors import DataflowError, ShiftBufferError
from repro.kernel.stages import CellBlockBulk, ShiftBufferStage
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow


def labelled(nx, ny, nz):
    return np.arange(nx * ny * nz, dtype=float).reshape(nx, ny, nz)


def stencil_shift(block, **kwargs):
    """The shift stage the stencil machine builds over ``block``: one
    buffer, full windows only."""
    return ShiftBufferStage("s", (block,), buffers=("s",), tops=False,
                            **kwargs)


def cut(runs):
    """The windows ``runs`` of bundles stand for, each bundle cut with
    :meth:`StencilBulk.bundle_at`."""
    return [window for run in runs
            for index in range(run.start, run.stop)
            for window in run.bundle_at(index)]


def forwarded(block, **kwargs):
    """The shift stage for ``block`` and every window it forwards when
    fed the block's cells in streaming order."""
    stage = stencil_shift(block, **kwargs)
    windows = []
    for cell in range(block.size):
        windows.extend(cut(stage.fire(0, {"in": [cell]}).get("out", [])))
    return stage, windows


class TestConstruction:
    def test_rejects_undersized_block(self):
        with pytest.raises(ShiftBufferError):
            stencil_shift(np.zeros((2, 5, 5)))  # needs >= 3 everywhere

    def test_window_shape_validation(self):
        with pytest.raises(ValueError):
            StencilWindow(raw=np.zeros((5, 5, 5)), center=(0, 0, 0))


class TestCorrectness:
    @pytest.mark.parametrize("radius", [1])
    def test_every_window_matches_neighbourhood(self, radius):
        side = 2 * radius + 1
        nx, ny, nz = side + 1, side + 2, side + 1
        block = labelled(nx, ny, nz)
        _, windows = forwarded(block)
        assert len(windows) == (nx - 2) * (ny - 2) * (nz - 2)
        for w in windows:
            assert not w.top
            cx, cy, cz = w.center
            for di in (-radius, 0, radius):
                for dj in (-radius, 0, radius):
                    for dk in (-radius, 0, radius):
                        assert w.at(di, dj, dk) == block[cx + di, cy + dj,
                                                         cz + dk]

    def test_radius1_matches_paper_buffer_full_windows(self):
        """The stage forwards exactly ShiftBuffer3D's non-top windows,
        in stream order, register for register."""
        nx, ny, nz = 5, 6, 5
        block = labelled(nx, ny, nz)
        _, windows = forwarded(block)
        buf = ShiftBuffer3D(nx, ny, nz)
        full = [w for value in block.reshape(-1)
                for w in buf.feed(float(value)) if not w.top]
        assert [w.center for w in windows] == [w.center for w in full]
        for mine, paper in zip(windows, full):
            np.testing.assert_array_equal(mine.raw, paper.raw)

    def test_offset_out_of_radius_rejected(self):
        _, windows = forwarded(labelled(5, 5, 5))
        with pytest.raises(ValueError):
            windows[0].at(2, 0, 0)

    def test_as_array_layout(self):
        block = labelled(5, 5, 5)
        _, windows = forwarded(block)
        w = windows[0]
        arr = w.as_array()
        cx, cy, cz = w.center
        assert arr[1, 1, 1] == block[cx, cy, cz]
        assert arr[2, 1, 1] == block[cx + 1, cy, cz]

    def test_overfeed_rejected(self):
        stage, _ = forwarded(np.zeros((3, 3, 3)))
        with pytest.raises(ShiftBufferError):
            stage.fire(0, {"in": [27]})

    def test_wrong_block_shape_rejected(self):
        with pytest.raises(DataflowError, match="one shape"):
            ShiftBufferStage("s", (np.zeros((3, 3, 3)), np.zeros((3, 4, 3))),
                             buffers=("a", "b"))


def fed_stream(draw, size):
    """A stream of the ``size`` cells of a block with up to three drawn
    cells dropped, and the same stream as batched firings: per firing a
    FIFO's leftovers (a list of positions), then one contiguous
    :class:`CellBlockBulk`."""
    dropped = draw(st.sets(st.integers(0, size - 1), max_size=3),
                   label="dropped")
    cells = [cell for cell in range(size) if cell not in dropped]
    firings = []
    start = 0
    while start < len(cells):
        stop = draw(st.integers(start + 1, len(cells)), label="stop")
        part = cells[start:stop]
        # The longest contiguous tail travels as one cell block.
        run = len(part) - 1
        while run > 0 and part[run - 1] == part[run] - 1:
            run -= 1
        run = max(run, draw(st.integers(0, len(part)), label="leftovers"))
        firings.append(ChainBulk([
            ListBulk(part[:run]),
            CellBlockBulk(part[run], part[-1] + 1) if run < len(part)
            else ListBulk([])]))
        start = stop
    return cells, firings


class TestBlockStore:
    """The stage holds the block, and its windows hold the values it was
    fed: the block's while each cell is its feed position, and after a
    cell that is not (a dropped word), the values of the cells that
    arrived, at their feed positions, as the register model's."""

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(3, 5), ny=st.integers(3, 5), nz=st.integers(3, 5),
           seed=st.integers(0, 2**16), bulk=st.booleans(), data=st.data())
    def test_windows_are_the_register_models_on_the_values_fed(
            self, nx, ny, nz, seed, bulk, data):
        """Half the block is zeros, as open halos make, so a shifted
        stream often carries the value the block holds at its feed
        position; the windows must still be those of the values fed."""
        rng = np.random.default_rng(seed)
        block = np.where(rng.random((nx, ny, nz)) < 0.5, 0.0,
                         rng.normal(size=(nx, ny, nz)))
        cells, firings = fed_stream(data.draw, block.size)
        stage = stencil_shift(block)
        if bulk:
            results = [stage.fire_bulk(len(firing), {"in": firing}, 0)
                       for firing in firings]
            runs = [result.head_bulk("out", result.producing_firings)
                    for result in results if result.producing_firings]
        else:
            runs = [run for cell in cells
                    for run in stage.fire(0, {"in": [cell]}).get("out", [])]
        model = ShiftBuffer3D(nx, ny, nz)
        flat = block.reshape(-1)
        want = [window for cell in cells
                for window in model.feed(float(flat[cell])) if not window.top]
        assert [(w.center, w.top, w.raw.tobytes()) for w in cut(runs)] \
            == [(w.center, w.top, w.raw.tobytes()) for w in want]

    def test_matching_values_are_cut_from_the_block(self):
        block = labelled(4, 5, 4)
        _, windows = forwarded(block)
        assert windows and all(not w.raw.flags.writeable
                               and np.shares_memory(w.raw, block)
                               for w in windows)
        model = ShiftBuffer3D(*block.shape)
        copies = [w for value in block.reshape(-1).tolist()
                  for w in model.feed(value)]
        assert copies and all(w.raw.flags.writeable for w in copies)


class TestPortPressure:
    @pytest.mark.parametrize("ii", [1])
    def test_dual_port_property_radius_independent(self, ii):
        """The paper's <=2-accesses-per-bank claim holds for the stencil
        machine's buffer, which is what lets the stage run at II = 1."""
        tracker = MemoryPortTracker(enforce=True)
        forwarded(labelled(4, 4, 4), ii=ii, tracker=tracker)
        assert tracker.worst_case == 2
        assert tracker.achievable_ii() == ii


@settings(max_examples=15, deadline=None)
@given(extra=st.integers(0, 2), seed=st.integers(0, 10_000))
def test_property_random_blocks(extra, seed):
    nx, ny, nz = 3 + extra, 4 + extra, 3 + extra
    block = np.random.default_rng(seed).normal(size=(nx, ny, nz))
    _, windows = forwarded(block)
    assert len(windows) == (nx - 2) * (ny - 2) * (nz - 2)
    for w in windows:
        cx, cy, cz = w.center
        assert w.at(0, 0, 0) == block[cx, cy, cz]
        assert w.at(-1, 1, 0) == block[cx - 1, cy + 1, cz]
