"""Tests for the 3D shift buffer: the paper's central data structure."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PortConflictError, ShiftBufferError
from repro.shiftbuffer.buffer3d import (
    ShiftBuffer3D,
    emission_boxes,
    emission_center,
    feed_inner_regime,
    feed_position,
    feed_regime,
    inner_regime_stop,
    regime_stop,
)
from repro.shiftbuffer.ports import MemoryPortTracker


def labelled_block(nx, ny, nz):
    return np.arange(nx * ny * nz, dtype=float).reshape(nx, ny, nz)


def stream(buf, values):
    """Scalar-feed ``values`` in streaming order; return every window."""
    windows = []
    for value in np.asarray(values, dtype=float).reshape(-1):
        windows.extend(buf.feed(float(value)))
    return windows


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


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.center == w.center
        assert g.top == w.top
        assert np.array_equal(g.raw, w.raw)


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
        windows = stream(buf, block)
        assert len(windows) == buf.expected_emissions
        check_all_windows(block, windows)

    def test_coverage_of_interior_centers(self):
        nx, ny, nz = 5, 6, 4
        buf = ShiftBuffer3D(nx, ny, nz)
        windows = stream(buf, labelled_block(nx, ny, nz))
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
        windows = stream(buf, labelled_block(4, 4, 4))
        centers = [w.center for w in windows]
        assert len(centers) == len(set(centers))

    def test_top_windows_flagged(self):
        nx, ny, nz = 4, 4, 5
        buf = ShiftBuffer3D(nx, ny, nz)
        windows = stream(buf, labelled_block(nx, ny, nz))
        tops = [w for w in windows if w.top]
        assert len(tops) == (nx - 2) * (ny - 2)
        assert all(w.center[2] == nz - 1 for w in tops)

    def test_no_bottom_level_emissions(self):
        buf = ShiftBuffer3D(4, 4, 4)
        windows = stream(buf, labelled_block(4, 4, 4))
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
        windows = stream(buf, block)
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
        buf.feed_bulk(buf.expected_feeds)
        with pytest.raises(ShiftBufferError):
            buf.feed(1.0)

    def test_reset_allows_reuse(self):
        block = labelled_block(3, 4, 3)
        buf = ShiftBuffer3D(3, 4, 3)
        first = stream(buf, block)
        buf.reset()
        second = stream(buf, block)
        assert first
        assert_same_windows(second, first)


class TestControlRegimes:
    """Each regime key, bounded by its stop, fixes the emissions."""

    @staticmethod
    def walk(nx, ny, nz):
        """Per feed: (outer key, outer feeds, inner key, inner feeds,
        windows emitted), with the feeds left before each regime's stop
        (the steady planes' at the block's end)."""
        buf = ShiftBuffer3D(nx, ny, nz)
        total = buf.expected_feeds
        rows = []
        for fed in range(total):
            position = feed_position(fed, ny, nz)
            stop = regime_stop(fed, ny, nz)
            rows.append((feed_regime(*position),
                         (total if stop is None else stop) - fed,
                         feed_inner_regime(*position),
                         inner_regime_stop(fed, ny, nz) - fed,
                         len(buf.feed(0.0))))
        return rows

    def test_keys_in_closed_form(self):
        nx, ny, nz = 5, 6, 4
        for fed, (outer, _, inner, inner_feeds, _) in enumerate(
                self.walk(nx, ny, nz)):
            x, rest = divmod(fed, ny * nz)
            y, z = divmod(rest, nz)
            assert outer == (("prime",) if x < 2 else (2, y, z))
            assert inner == (None if x < 2 else ("silent",) if y < 2
                             else ("column", z))
            silent = x >= 2 and y < 2
            assert inner_feeds == ((x * ny + 2) * nz - fed if silent
                                   else (x + 1) * ny * nz - fed)

    @pytest.mark.parametrize("extents", [(5, 6, 4), (4, 3, 3), (6, 5, 5)])
    def test_equal_keys_replay_within_their_capacity(self, extents):
        """Two positions with one key emit alike for as many feeds as the
        later one's capacity allows: the premise of every batched window."""
        rows = self.walk(*extents)
        emitted = [row[4] for row in rows]
        for key_at, feeds_at in ((0, 1), (2, 3)):
            first_seen: dict = {}
            for fed, row in enumerate(rows):
                key = row[key_at]
                if key is None:
                    continue
                if key in first_seen:
                    start, stop = first_seen[key], fed + row[feeds_at]
                    assert emitted[start:start + stop - fed] \
                        == emitted[fed:stop]
                else:
                    first_seen[key] = fed

    @pytest.mark.parametrize("extents", [(5, 6, 4), (4, 3, 3), (6, 5, 5),
                                         (7, 4, 6), (5, 8, 3)])
    def test_every_same_key_pair_emits_alike(self, extents):
        """Any two positions with one key emit alike for the smaller of
        their two capacities, in whichever order they come: what a
        period proved at one position and reused at another needs."""
        rows = self.walk(*extents)
        emitted = [row[4] for row in rows]
        pairs = 0
        for key_at, feeds_at in ((0, 1), (2, 3)):
            by_key: dict = {}
            for fed, row in enumerate(rows):
                if row[key_at] is not None:
                    by_key.setdefault(row[key_at], []).append(
                        (fed, row[feeds_at]))
            for positions in by_key.values():
                for (a, feeds_a), (b, feeds_b) in itertools.combinations(
                        positions, 2):
                    span = min(feeds_a, feeds_b)
                    assert emitted[a:a + span] == emitted[b:b + span]
                    pairs += 1
        assert pairs > 0


class TestPortPressure:
    def test_partitioned_never_exceeds_two(self):
        tracker = MemoryPortTracker(enforce=True)
        buf = ShiftBuffer3D(4, 5, 4, tracker=tracker)
        stream(buf, labelled_block(4, 5, 4))  # would raise on violation
        assert tracker.worst_case == 2
        assert tracker.achievable_ii() == 1

    def test_unpartitioned_forces_higher_ii(self):
        tracker = MemoryPortTracker(enforce=False)
        buf = ShiftBuffer3D(4, 5, 4, partitioned=False, tracker=tracker)
        stream(buf, labelled_block(4, 5, 4))
        assert tracker.worst_case == 5  # slab: 2 reads + 3 writes
        assert tracker.achievable_ii() > 1
        assert tracker.conflicts > 0

    def test_partition_banks_are_separate_memories(self):
        tracker = MemoryPortTracker(enforce=True)
        buf = ShiftBuffer3D(3, 3, 3, tracker=tracker, name="u")
        stream(buf, np.zeros((3, 3, 3)))
        names = set(tracker.reports())
        assert "u.slab[0]" in names and "u.slab[2]" in names
        assert "u.lines[0][0]" in names


def closed_form_pattern(name, partitioned):
    """Accesses per feed per memory, written out from the Fig. 3 update.

    Partitioned: slab slices 0 and 1 and line depths 0 and 1 each read
    the displaced value and write the new one; the deepest bank is only
    written.  Unpartitioned: each whole array sees 2 reads + 3 writes.
    """
    if not partitioned:
        return {f"{name}.slab": 5,
                **{f"{name}.lines[{s}]": 5 for s in range(3)}}
    pattern = {f"{name}.slab[0]": 2, f"{name}.slab[1]": 2,
               f"{name}.slab[2]": 1}
    for s in range(3):
        pattern.update({f"{name}.lines[{s}][0]": 2,
                        f"{name}.lines[{s}][1]": 2,
                        f"{name}.lines[{s}][2]": 1})
    return pattern


class TestPortLedger:
    """Scalar and batched feeds book one per-feed access pattern."""

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(3, 6), ny=st.integers(3, 6), nz=st.integers(3, 6),
           partitioned=st.booleans(), data=st.data())
    def test_full_pass_ledger_in_closed_form(self, nx, ny, nz, partitioned,
                                             data):
        block = labelled_block(nx, ny, nz)
        feeds = block.size
        split = data.draw(st.integers(1, feeds - 1), label="split")
        pattern = closed_form_pattern("f", partitioned)

        def scalar(buf):
            stream(buf, block)

        def bulk(buf):
            buf.feed_bulk(feeds)

        def scalar_then_bulk(buf):
            stream(buf, block.reshape(-1)[:split])
            buf.feed_bulk(feeds - split)

        for full_pass in (scalar, bulk, scalar_then_bulk):
            tracker = MemoryPortTracker(enforce=False)
            buf = ShiftBuffer3D(nx, ny, nz, partitioned=partitioned,
                                tracker=tracker, name="f")
            full_pass(buf)
            assert buf.fed == feeds
            reports = tracker.reports()
            assert list(reports) == list(pattern), full_pass.__name__
            for memory, count in pattern.items():
                report = reports[memory]
                assert report.cycles == feeds
                assert report.total_accesses == count * feeds
                assert report.max_accesses_per_cycle == count
            over = sum(1 for count in pattern.values() if count > 2)
            assert tracker.conflicts == feeds * over, full_pass.__name__

    @settings(max_examples=10, deadline=None)
    @given(nx=st.integers(3, 6), ny=st.integers(3, 6), nz=st.integers(3, 6))
    def test_enforced_conflict_raises_on_the_first_feed(self, nx, ny, nz):
        block = labelled_block(nx, ny, nz)
        for first_feed in (lambda buf: buf.feed(1.0),
                           lambda buf: buf.feed_bulk(block.size)):
            tracker = MemoryPortTracker(enforce=True)
            buf = ShiftBuffer3D(nx, ny, nz, partitioned=False,
                                tracker=tracker, name="f")
            with pytest.raises(PortConflictError, match=r"'f\.slab'"):
                first_feed(buf)
            assert buf.fed == 0
            assert buf.position == (0, 0, 0)
            assert tracker.reports() == {}


    def test_advance_books_what_feed_books(self):
        """The scalar block path's ``advance`` books one per-feed pattern
        per value, and an enforced conflict raises before the position
        moves."""
        block = labelled_block(4, 5, 3)
        ledgers = []
        for step in (lambda buf: stream(buf, block),
                     lambda buf: [buf.advance(1)
                                  for _ in range(block.size)]):
            tracker = MemoryPortTracker(enforce=False)
            step(ShiftBuffer3D(4, 5, 3, partitioned=False, tracker=tracker,
                               name="f"))
            ledgers.append((tracker.reports(), tracker.conflicts))
        assert ledgers[0] == ledgers[1]
        tracker = MemoryPortTracker(enforce=True)
        buf = ShiftBuffer3D(4, 5, 3, partitioned=False, tracker=tracker,
                            name="f")
        with pytest.raises(PortConflictError, match=r"'f\.slab'"):
            buf.advance(1)
        assert buf.fed == 0 and buf.position == (0, 0, 0)
        assert tracker.reports() == {}


class TestBatchedFeed:
    def block(self, nx=5, ny=6, nz=4, seed=7):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(nx, ny, nz))

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(3, 6), ny=st.integers(3, 6), nz=st.integers(3, 6),
           seed=st.integers(0, 2**31 - 1), stepwise=st.booleans(),
           data=st.data())
    def test_feed_bulk_windows_match_scalar_feeds(self, nx, ny, nz, seed,
                                                 stepwise, data):
        """The engine's two block forms up to a split point: batched,
        ``feed_bulk`` then ``window_at`` over its emission range, or
        ``stepwise``, the scalar fire's ``advance`` one value at a time
        with each value's ``next_emissions`` cut.  A batched jump then
        takes the rest.  Both halves must equal a second buffer's scalar
        ``feed`` windows raw for raw, and every cut is a read-only view
        of the block."""
        block = self.block(nx, ny, nz, seed)
        flat = block.reshape(-1)
        split = data.draw(st.integers(1, block.size), label="split")
        scalar = ShiftBuffer3D(nx, ny, nz, name="s")
        head = stream(scalar, flat[:split])
        tail = stream(scalar, flat[split:])

        cut = ShiftBuffer3D(nx, ny, nz, name="b")
        if stepwise:
            indices = []
            for _ in range(split):
                first, stop = cut.next_emissions()
                indices.extend(range(first, stop))
                cut.advance(1)
            assert indices == list(range(len(head)))
        else:
            first, stop = cut.feed_bulk(split)
            assert (first, stop) == (0, len(head))
            indices = list(range(first, stop))
        cuts = [cut.window_at(i, block) for i in indices]
        assert_same_windows(cuts, head)
        assert all(not w.raw.flags.writeable
                   and np.shares_memory(w.raw, block) for w in cuts)
        if split < block.size:
            first, stop = cut.feed_bulk(block.size - split)
            assert_same_windows([cut.window_at(i, block)
                                 for i in range(first, stop)], tail)

    def test_window_cuts_are_read_only_views(self):
        block = self.block()
        before = block.copy()
        buf = ShiftBuffer3D(*block.shape, name="b")
        first, stop = buf.feed_bulk(buf.expected_feeds)
        for index in (first, stop - 1):  # a full window, a column top
            window = buf.window_at(index, block)
            with pytest.raises(ValueError, match="read-only"):
                window.raw[1, 1, 1] = 1e9
        assert block.tobytes() == before.tobytes()
        assert block.flags.writeable  # the caller's array keeps its flag

    def test_feed_refuses_after_advance_or_feed_bulk(self):
        """Moving the position without the registers leaves them behind
        the stream: ``feed`` refuses until ``reset``."""
        block = self.block()
        value = float(block.reshape(-1)[0])
        for skip in (lambda buf: buf.advance(3),
                     lambda buf: buf.feed_bulk(40)):
            buf = ShiftBuffer3D(*block.shape, name="b")
            buf.feed(value)
            skip(buf)
            fed = buf.fed
            with pytest.raises(ShiftBufferError,
                               match="feed after advance or feed_bulk"):
                buf.feed(value)
            assert buf.fed == fed
            buf.reset()
            assert buf.feed(value) == []

    def test_feed_bulk_matches_scalar_state(self):
        block = self.block()
        bulk = ShiftBuffer3D(*block.shape, name="b")
        scalar = ShiftBuffer3D(*block.shape, name="s")
        flat = block.reshape(-1)
        count = 37
        emitted = sum(len(scalar.feed(float(v))) for v in flat[:count])
        first, stop = bulk.feed_bulk(count)
        assert (first, stop) == (0, emitted)
        assert bulk.position == scalar.position
        assert bulk.fed == scalar.fed

    def test_partially_fed_buffer_overrun_is_caught(self):
        """A batched feed that would run past the block raises cleanly
        instead of silently corrupting state."""
        block = self.block()
        buf = ShiftBuffer3D(*block.shape, name="b")
        buf.feed(float(block.reshape(-1)[0]))
        with pytest.raises(ShiftBufferError, match="overruns the block"):
            buf.feed_bulk(buf.expected_feeds)
        assert buf.fed == 1
        assert buf.position == (0, 0, 1)

    def test_reset_reopens_the_batched_path(self):
        block = self.block()
        buf = ShiftBuffer3D(*block.shape, name="b")
        full = (0, buf.expected_emissions)
        assert buf.feed_bulk(buf.expected_feeds) == full
        buf.reset()
        assert buf.fed == 0 and buf.position == (0, 0, 0)
        assert buf.feed_bulk(buf.expected_feeds) == full


class TestEmissionBoxes:
    @settings(max_examples=200, deadline=None)
    @given(nx=st.integers(3, 7), ny=st.integers(3, 7), nz=st.integers(3, 7),
           generic=st.booleans(), data=st.data())
    def test_boxes_walk_the_numbering(self, nx, ny, nz, generic, data):
        """At most five non-empty boxes whose C-order walks, one after
        another, visit the centres of ``[first, stop)`` in order: the
        advection numbering (``emission_center``, ``nz - 1`` per column)
        or the generic machine's non-top windows (``nz - 2``)."""
        per_column = nz - 2 if generic else nz - 1
        total = (nx - 2) * (ny - 2) * per_column
        first = data.draw(st.integers(0, total), label="first")
        stop = data.draw(st.integers(first, total), label="stop")
        boxes = emission_boxes(first, stop, ny, per_column)
        assert len(boxes) <= 5
        walk = []
        for x0, x1, y0, y1, z0, z1 in boxes:
            assert x0 < x1 and y0 < y1 and z0 < z1
            walk.extend((x, y, z) for x in range(x0, x1)
                        for y in range(y0, y1) for z in range(z0, z1))
        if generic:
            column, j = np.divmod(np.arange(first, stop), per_column)
            index = column * (nz - 1) + j
        else:
            index = np.arange(first, stop)
        cx, cy, cz, _top = emission_center(index, ny, nz)
        assert walk == list(zip(cx.tolist(), cy.tolist(), cz.tolist()))
