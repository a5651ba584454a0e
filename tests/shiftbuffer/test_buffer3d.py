"""Tests for the 3D shift buffer: the paper's central data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataflowError, ShiftBufferError
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker


def labelled_block(nx, ny, nz):
    return np.arange(nx * ny * nz, dtype=float).reshape(nx, ny, nz)


def check_all_windows(block, windows):
    """Every emitted window must match the true 27-neighbourhood."""
    for w in windows:
        cx, cy, cz = w.center
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    if w.top and dk == 1:
                        continue
                    assert w.at(di, dj, dk) == block[cx + di, cy + dj, cz + dk], (
                        w.center, (di, dj, dk), w.top
                    )


class TestConstruction:
    @pytest.mark.parametrize("bad", [(2, 3, 3), (3, 2, 3), (3, 3, 2)])
    def test_rejects_undersized_extents(self, bad):
        with pytest.raises(ShiftBufferError):
            ShiftBuffer3D(*bad)

    def test_memory_word_accounting(self):
        buf = ShiftBuffer3D(4, 5, 6)
        # slab 3*5*6 + lines 3*3*6.
        assert buf.memory_words == 90 + 54
        assert buf.register_words == 27


class TestStencilCorrectness:
    @pytest.mark.parametrize("extents", [(3, 3, 3), (5, 4, 3), (4, 6, 5),
                                         (3, 8, 4)])
    def test_every_window_matches_neighbourhood(self, extents):
        block = labelled_block(*extents)
        buf = ShiftBuffer3D(*extents)
        windows = buf.feed_block(block)
        assert len(windows) == buf.expected_emissions
        check_all_windows(block, windows)

    def test_coverage_of_interior_centers(self):
        nx, ny, nz = 5, 6, 4
        buf = ShiftBuffer3D(nx, ny, nz)
        windows = buf.feed_block(labelled_block(nx, ny, nz))
        centers = sorted(w.center for w in windows)
        expected = sorted(
            (i, j, k)
            for i in range(1, nx - 1)
            for j in range(1, ny - 1)
            for k in range(1, nz)
        )
        assert centers == expected

    def test_each_center_emitted_exactly_once(self):
        buf = ShiftBuffer3D(4, 4, 4)
        windows = buf.feed_block(labelled_block(4, 4, 4))
        centers = [w.center for w in windows]
        assert len(centers) == len(set(centers))

    def test_top_windows_flagged(self):
        nx, ny, nz = 4, 4, 5
        buf = ShiftBuffer3D(nx, ny, nz)
        windows = buf.feed_block(labelled_block(nx, ny, nz))
        tops = [w for w in windows if w.top]
        assert len(tops) == (nx - 2) * (ny - 2)
        assert all(w.center[2] == nz - 1 for w in tops)

    def test_no_bottom_level_emissions(self):
        buf = ShiftBuffer3D(4, 4, 4)
        windows = buf.feed_block(labelled_block(4, 4, 4))
        assert all(w.center[2] != 0 for w in windows)

    def test_double_emission_at_column_top_only(self):
        """Per fed value at most two windows, and two only at column tops."""
        nx, ny, nz = 4, 4, 4
        buf = ShiftBuffer3D(nx, ny, nz)
        block = labelled_block(nx, ny, nz)
        for index, value in enumerate(block.reshape(-1)):
            emitted = buf.feed(float(value))
            z = index % nz
            if len(emitted) == 2:
                assert z == nz - 1
            else:
                assert len(emitted) <= 1

    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(3, 5), ny=st.integers(3, 6), nz=st.integers(3, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_random_blocks(self, nx, ny, nz, seed):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(nx, ny, nz))
        buf = ShiftBuffer3D(nx, ny, nz)
        windows = buf.feed_block(block)
        assert len(windows) == buf.expected_emissions
        check_all_windows(block, windows)


class TestStreamingProtocol:
    def test_position_advances_z_fastest(self):
        buf = ShiftBuffer3D(3, 3, 3)
        assert buf.position == (0, 0, 0)
        buf.feed(0.0)
        assert buf.position == (0, 0, 1)
        buf.feed(0.0)
        buf.feed(0.0)
        assert buf.position == (0, 1, 0)

    def test_overfeeding_rejected(self):
        buf = ShiftBuffer3D(3, 3, 3)
        buf.feed_block(np.zeros((3, 3, 3)))
        with pytest.raises(ShiftBufferError):
            buf.feed(1.0)

    def test_wrong_block_shape_rejected(self):
        buf = ShiftBuffer3D(3, 3, 3)
        with pytest.raises(ShiftBufferError):
            buf.feed_block(np.zeros((3, 3, 4)))

    def test_reset_allows_reuse(self):
        block = labelled_block(3, 4, 3)
        buf = ShiftBuffer3D(3, 4, 3)
        first = buf.feed_block(block)
        buf.reset()
        second = buf.feed_block(block)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.center == b.center
            np.testing.assert_array_equal(a.raw, b.raw)


class TestPortPressure:
    def test_partitioned_never_exceeds_two(self):
        tracker = MemoryPortTracker(enforce=True)
        buf = ShiftBuffer3D(4, 5, 4, tracker=tracker)
        buf.feed_block(labelled_block(4, 5, 4))  # would raise on violation
        assert tracker.worst_case == 2
        assert tracker.achievable_ii() == 1

    def test_unpartitioned_forces_higher_ii(self):
        tracker = MemoryPortTracker(enforce=False)
        buf = ShiftBuffer3D(4, 5, 4, partitioned=False, tracker=tracker)
        buf.feed_block(labelled_block(4, 5, 4))
        assert tracker.worst_case == 5  # slab: 2 reads + 3 writes
        assert tracker.achievable_ii() > 1
        assert tracker.conflicts > 0

    def test_partition_banks_are_separate_memories(self):
        tracker = MemoryPortTracker(enforce=True)
        buf = ShiftBuffer3D(3, 3, 3, tracker=tracker, name="u")
        buf.feed_block(np.zeros((3, 3, 3)))
        names = set(tracker.reports())
        assert "u.slab[0]" in names and "u.slab[2]" in names
        assert "u.lines[0][0]" in names


class TestBatchedFeed:
    def block(self, nx=5, ny=6, nz=4, seed=7):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(nx, ny, nz))

    def test_feed_block_matches_scalar_feeds(self):
        block = self.block()
        batched = ShiftBuffer3D(*block.shape, name="b")
        scalar = ShiftBuffer3D(*block.shape, name="s")
        fast_windows = batched.feed_block(block)
        slow_windows = []
        for value in block.reshape(-1):
            slow_windows.extend(scalar.feed(float(value)))
        assert len(fast_windows) == len(slow_windows)
        for got, want in zip(fast_windows, slow_windows):
            assert got.center == want.center
            assert got.top == want.top
            assert np.array_equal(got.raw, want.raw)

    def test_feed_bulk_matches_scalar_state(self):
        block = self.block()
        bulk = ShiftBuffer3D(*block.shape, name="b")
        scalar = ShiftBuffer3D(*block.shape, name="s")
        flat = block.reshape(-1)
        count = 37
        emitted = sum(len(scalar.feed(float(v))) for v in flat[:count])
        first, stop = bulk.feed_bulk(count, block)
        assert (first, stop) == (0, emitted)
        assert bulk.position == scalar.position
        assert bulk.fed == scalar.fed

    def test_partially_fed_buffer_overrun_is_caught(self):
        """feed_block on a non-fresh buffer takes the scalar path, which
        enforces the block budget: the overrun raises cleanly instead of
        silently corrupting state."""
        block = self.block()
        buf = ShiftBuffer3D(*block.shape, name="b")
        buf.feed(float(block.reshape(-1)[0]))
        with pytest.raises(ShiftBufferError, match="already consumed|full block"):
            buf.feed_block(block)

    def test_reset_reopens_the_batched_path(self):
        block = self.block()
        buf = ShiftBuffer3D(*block.shape, name="b")
        first_pass = buf.feed_block(block)
        buf.reset()
        second_pass = buf.feed_block(block)
        assert len(second_pass) == len(first_pass) == buf.expected_emissions

    def test_transposed_block_raises_with_hint(self):
        block = self.block(nx=5, ny=6, nz=4)
        buf = ShiftBuffer3D(5, 6, 4, name="b")
        with pytest.raises(ShiftBufferError, match="axes are permuted"):
            buf.feed_block(block.transpose(2, 0, 1))
        # ShiftBufferError is a DataflowError: one except clause catches
        # every machine-model failure.
        with pytest.raises(DataflowError):
            buf.feed_block(block.transpose(2, 0, 1))

    def test_wrong_shape_raises_without_hint(self):
        buf = ShiftBuffer3D(5, 6, 4, name="b")
        with pytest.raises(ShiftBufferError, match="does not match"):
            buf.feed_block(np.zeros((5, 6, 5)))
