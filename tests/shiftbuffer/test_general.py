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

from repro.dataflow.bulk import ListBulk
from repro.errors import ShiftBufferError
from repro.kernel.stages import ShiftBufferStage, StencilBulk
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow


def labelled(nx, ny, nz):
    return np.arange(nx * ny * nz, dtype=float).reshape(nx, ny, nz)


def stencil_shift(nx, ny, nz, **kwargs):
    """The shift stage the stencil machine builds: one buffer, full
    windows only."""
    return ShiftBufferStage("s", nx, ny, nz, buffers=("s",), tops=False,
                            **kwargs)


def cut(items):
    """The window bundles ``items`` stand for: a register-model bundle as
    it is, and each bundle of a run of the blocks cut with
    :meth:`StencilBulk.bundle_at`."""
    return [bundle for item in items for bundle in (
        [item.bundle_at(index) for index in range(item.start, item.stop)]
        if isinstance(item, StencilBulk) else [item])]


def forwarded(block, **kwargs):
    """The shift stage for ``block`` and every window it forwards."""
    stage = stencil_shift(*block.shape, **kwargs)
    windows = []
    for value in block.reshape(-1).tolist():
        windows.extend(w for (w,) in cut(
            stage.fire(0, {"in": [(value,)]}).get("out", [])))
    return stage, windows


class TestConstruction:
    def test_rejects_undersized_block(self):
        with pytest.raises(ShiftBufferError):
            stencil_shift(2, 5, 5)  # needs >= 3 everywhere

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
            stage.fire(0, {"in": [(0.0,)]})

    def test_wrong_block_shape_rejected(self):
        stage = stencil_shift(3, 3, 3)
        with pytest.raises(ShiftBufferError):
            stage.buffers[0].feed_bulk(1, np.zeros((3, 4, 3)))


class TestBlockStore:
    """With ``backing`` the stage cuts its windows from the block while
    the stream matches it bit for bit, and runs the register model from
    the first value that does not, for the rest of the block."""

    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(3, 5), ny=st.integers(3, 5), nz=st.integers(3, 5),
           seed=st.integers(0, 2**16), bulk=st.booleans(), data=st.data())
    def test_a_diverging_value_switches_to_the_register_model(
            self, nx, ny, nz, seed, bulk, data):
        """The stream differs from the block at one value: ``-0.0``
        where the block holds ``0.0`` (equal, but other bits), or another
        number.  Every later value matches the block again, and the
        windows must still equal the blockless stage's, byte for byte;
        a stage that switched back to the block would forward ``+0.0``
        where the registers hold ``-0.0``."""
        rng = np.random.default_rng(seed)
        block = np.where(rng.random((nx, ny, nz)) < 0.5, 0.0,
                         rng.normal(size=(nx, ny, nz)))
        values = block.reshape(-1).copy()
        k = data.draw(st.integers(0, values.size - 1), label="k")
        values[k] = -0.0 if values[k] == 0.0 else values[k] + 1.0

        cells = [(value,) for value in values.tolist()]

        def windows(**kwargs):
            stage = stencil_shift(nx, ny, nz, **kwargs)
            if bulk:
                result = stage.fire_bulk(len(cells), {"in": ListBulk(cells)},
                                         0)
                got = result.head_bulk(
                    "out", result.producing_firings).materialize()
            else:
                got = [bundle for cell in cells
                       for bundle in stage.fire(0, {"in": [cell]})
                       .get("out", [])]
            return [(w.center, w.raw.tobytes()) for (w,) in cut(got)]

        assert windows(backing=(block,)) == windows()

    def test_matching_values_are_cut_from_the_block(self):
        block = labelled(4, 5, 4)
        _, windows = forwarded(block, backing=(block,))
        assert windows and all(not w.raw.flags.writeable
                               and np.shares_memory(w.raw, block)
                               for w in windows)
        _, copies = forwarded(block)
        assert all(w.raw.flags.writeable for w in copies)


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
