"""Batched execution reproduces forced-scalar kernel simulation bit-for-bit.

Equivalence is checked at the level the paper cares about: total cycle
counts, per-stage fire/stall counters, stream sizing bounds, and the
output source arrays — across chunked, memory-starved, and multi-kernel
configurations, with arbiter grants and denials compared under
contention.
"""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.errors import DataflowError
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel


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


class TestMultiKernel:
    def run_both(self, **kwargs):
        grid = Grid(nx=8, ny=6, nz=4)
        fields = random_wind(grid, seed=2)
        config = KernelConfig(grid=grid, chunk_width=3)
        scalar = simulate_kernel(config, fields, num_kernels=2,
                                 batched=False, **kwargs)
        batched = simulate_kernel(config, fields, num_kernels=2, **kwargs)
        assert batched.total_cycles == scalar.total_cycles
        assert batched.arbiter.grants == scalar.arbiter.grants
        assert batched.arbiter.denials == scalar.arbiter.denials
        assert_same_sources(scalar, batched)
        return scalar, batched

    def test_ample_bandwidth_bit_identical(self):
        _, batched = self.run_both()
        assert batched.aggregate_stats().batch_fallback_reason is None

    def test_starved_arbiter_disables_fast_forward(self):
        """A contended memory makes read counts data-dependent: the read
        stage vetoes batching and the run must match scalar ticking."""
        scalar, batched = self.run_both(memory_cells_per_cycle=1.5)
        assert scalar.arbiter.denials > 0  # the scenario really starves
        stats = batched.aggregate_stats()
        assert "k0.read_data" in stats.batch_fallback_reason
        assert stats.batched_windows == stats.batched_cycles == 0
