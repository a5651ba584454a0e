"""Batched execution reproduces forced-scalar kernel simulation bit-for-bit.

Equivalence is checked at the level the paper cares about: total cycle
counts, per-stage fire/stall counters, stream sizing bounds, and the
output source arrays — across chunked, memory-starved, and multi-kernel
configurations, with arbiter grants and denials compared under
contention.  Also covers the batched shift-buffer feed path and the
benchmark record module the perf harness is built on.
"""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.errors import ConfigurationError, DataflowError, ShiftBufferError
from repro.kernel.config import KernelConfig
from repro.kernel.multi_simulate import simulate_multi_kernel
from repro.kernel.simulate import simulate_kernel
from repro.perf.bench import BenchRecord, BenchSuite, load_suite, speedup
from repro.shiftbuffer.buffer3d import ShiftBuffer3D


def run_both(config, fields, **kwargs):
    scalar = simulate_kernel(config, fields, batched=False, **kwargs)
    batched = simulate_kernel(config, fields, batched=True, **kwargs)
    return scalar, batched


def assert_identical(scalar, batched):
    assert batched.total_cycles == scalar.total_cycles
    agg_scalar, agg_batched = (scalar.aggregate_stats(),
                               batched.aggregate_stats())
    assert agg_batched.fires == agg_scalar.fires
    assert agg_batched.stalls == agg_scalar.stalls
    assert agg_batched.stream_high_water == agg_scalar.stream_high_water
    assert_same_sources(scalar, batched)


def assert_same_sources(scalar, batched):
    for name in ("su", "sv", "sw"):
        assert np.array_equal(getattr(scalar.sources, name),
                              getattr(batched.sources, name)), name


class TestSingleKernel:
    def test_unchunked_bit_identical(self):
        grid = Grid(nx=8, ny=8, nz=8)
        fields = random_wind(grid, seed=3, magnitude=2.0)
        scalar, batched = run_both(KernelConfig(grid=grid, chunk_width=64),
                                   fields)
        assert_identical(scalar, batched)
        # The steady state is long enough that the bulk of the run must
        # have been batched.
        agg = batched.aggregate_stats()
        assert agg.batched_windows >= 1
        assert agg.batched_cycles > batched.total_cycles // 2

    def test_chunked_bit_identical(self):
        grid = Grid(nx=10, ny=14, nz=9)
        fields = random_wind(grid, seed=11, magnitude=2.0)
        scalar, batched = run_both(KernelConfig(grid=grid, chunk_width=5),
                                   fields)
        assert_identical(scalar, batched)
        # One window per chunk: detection resets per engine run.
        assert batched.aggregate_stats().batched_windows \
            >= len(batched.chunk_stats)

    def test_starved_read_bit_identical(self):
        grid = Grid(nx=8, ny=8, nz=8)
        fields = random_wind(grid, seed=3)
        scalar, batched = run_both(KernelConfig(grid=grid, chunk_width=64),
                                   fields, read_ii=2)
        assert_identical(scalar, batched)

    def test_exact_mode_reports_no_advances(self):
        grid = Grid(nx=6, ny=6, nz=6)
        fields = random_wind(grid, seed=1)
        result = simulate_kernel(KernelConfig(grid=grid), fields,
                                 batched=False)
        agg = result.aggregate_stats()
        assert agg.batched_windows == 0
        assert agg.batched_cycles == 0

    def test_bad_mode_rejected(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=0)
        with pytest.raises(DataflowError, match="mode"):
            simulate_kernel(KernelConfig(grid=grid), fields, mode="warp")

    def test_aggregate_stats_sums_chunks(self):
        grid = Grid(nx=8, ny=10, nz=6)
        fields = random_wind(grid, seed=5)
        result = simulate_kernel(KernelConfig(grid=grid, chunk_width=4),
                                 fields)
        agg = result.aggregate_stats()
        assert agg.cycles == result.total_cycles
        assert agg.fires["shift_buffer"] == sum(
            s.fires["shift_buffer"] for s in result.chunk_stats)


class TestMultiKernel:
    def run_both(self, **kwargs):
        grid = Grid(nx=8, ny=6, nz=4)
        fields = random_wind(grid, seed=2)
        config = KernelConfig(grid=grid, chunk_width=3)
        scalar = simulate_multi_kernel(config, fields, num_kernels=2,
                                       batched=False, **kwargs)
        batched = simulate_multi_kernel(config, fields, num_kernels=2,
                                        **kwargs)
        assert batched.total_cycles == scalar.total_cycles
        assert batched.arbiter.grants == scalar.arbiter.grants
        assert batched.arbiter.denials == scalar.arbiter.denials
        assert_same_sources(scalar, batched)
        return scalar, batched

    def test_ample_bandwidth_bit_identical(self):
        _, batched = self.run_both()
        assert batched.batch_fallback_reason is None

    def test_starved_arbiter_disables_fast_forward(self):
        """A contended memory makes read counts data-dependent: the read
        stage vetoes batching and the run must match scalar ticking."""
        scalar, batched = self.run_both(memory_cells_per_cycle=1.5)
        assert scalar.arbiter.denials > 0  # the scenario really starves
        assert "k0.read_data" in batched.batch_fallback_reason


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


class TestBenchRecords:
    def record(self, name="r", wall=2.0, cycles=1000, mode="exact"):
        return BenchRecord(name=name, wall_seconds=wall, cycles=cycles,
                           cells=512, mode=mode)

    def test_round_trip(self, tmp_path):
        suite = BenchSuite(context={"grid": "8x8x8"})
        suite.add(self.record("a", wall=2.0))
        suite.add(self.record("b", wall=0.5, mode="chaos"))
        path = suite.write(tmp_path / "bench.json")
        loaded = load_suite(path)
        assert loaded.context["grid"] == "8x8x8"
        assert [r.name for r in loaded.records] == ["a", "b"]
        assert loaded.find("b").mode == "chaos"

    def test_cycles_per_second(self):
        assert self.record(wall=2.0, cycles=1000).cycles_per_second == 500.0

    def test_speedup(self):
        base = self.record("base", wall=2.0)
        cand = self.record("cand", wall=0.5)
        assert speedup(base, cand) == pytest.approx(4.0)

    def test_speedup_rejects_mismatched_cycles(self):
        base = self.record("base", cycles=1000)
        cand = self.record("cand", cycles=999)
        with pytest.raises(ConfigurationError):
            speedup(base, cand)

    def test_rejects_nonpositive_wall_time(self):
        with pytest.raises(ConfigurationError):
            self.record(wall=0.0)
