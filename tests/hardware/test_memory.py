"""External memory model: capacity, bandwidth sharing, burst efficiency."""

import pytest

from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.hardware import ALVEO_U280
from repro.hardware.memory import BURST_GAP_BYTES, MemorySpec, StreamingMemoryModel
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel


def model(per_kernel=10e9, aggregate=40e9, capacity=8 * 2**30):
    return StreamingMemoryModel(MemorySpec(
        name="test", capacity_bytes=capacity,
        per_kernel_bandwidth=per_kernel, aggregate_bandwidth=aggregate,
    ))


class TestSpecValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            MemorySpec("m", 0, 1.0, 1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            MemorySpec("m", 1, 0.0, 1.0)

    def test_rejects_aggregate_below_per_kernel(self):
        with pytest.raises(ConfigurationError):
            MemorySpec("m", 1, 10.0, 5.0)


class TestBurstEfficiency:
    def test_long_bursts_near_unity(self):
        eff = StreamingMemoryModel.burst_efficiency(32 * 1024)
        assert eff > 0.98

    def test_paper_threshold_chunk_8(self):
        """Chunk widths of ~8 or below start to hurt; above, negligible."""
        nz = 64
        at_8 = StreamingMemoryModel.burst_efficiency(
            StreamingMemoryModel.chunk_burst_bytes(8, nz))
        at_64 = StreamingMemoryModel.burst_efficiency(
            StreamingMemoryModel.chunk_burst_bytes(64, nz))
        at_1 = StreamingMemoryModel.burst_efficiency(
            StreamingMemoryModel.chunk_burst_bytes(1, nz))
        assert at_64 > 0.98          # negligible impact
        assert 0.85 < at_8 < 0.95    # starting to show
        assert at_1 < 0.55           # severe

    def test_monotone_in_burst_length(self):
        effs = [StreamingMemoryModel.burst_efficiency(b)
                for b in (256, 1024, 4096, 65536)]
        assert effs == sorted(effs)

    def test_rejects_nonpositive_burst(self):
        with pytest.raises(ConfigurationError):
            StreamingMemoryModel.burst_efficiency(0)

    def test_gap_constant_visible(self):
        assert StreamingMemoryModel.burst_efficiency(
            BURST_GAP_BYTES) == pytest.approx(0.5)


class TestBandwidthSharing:
    def test_per_kernel_rate(self):
        m = model()
        assert m.effective_per_kernel() == pytest.approx(10e9)

    def test_aggregate_scales_then_saturates(self):
        m = model(per_kernel=10e9, aggregate=25e9)
        assert m.effective_aggregate(1) == pytest.approx(10e9)
        assert m.effective_aggregate(2) == pytest.approx(20e9)
        assert m.effective_aggregate(3) == pytest.approx(25e9)  # capped
        assert m.effective_aggregate(6) == pytest.approx(25e9)

    def test_burst_factor_applies(self):
        m = model()
        full = m.effective_per_kernel()
        short = m.effective_per_kernel(burst_bytes=512.0)
        assert short == pytest.approx(full * 0.5)

    def test_rejects_bad_kernel_count(self):
        with pytest.raises(ConfigurationError):
            model().effective_aggregate(0)


class TestStreamingTime:
    def test_time_is_bytes_over_bandwidth(self):
        """An invocation's memory time: a 24-byte read per fed cell and a
        24-byte write per interior cell, over the sustained rate at the
        chunk's burst length."""
        grid = Grid(nx=32, ny=64, nz=16)
        config = KernelConfig(grid=grid, chunk_width=64)
        feeds = KernelCycleModel(config).breakdown().feeds_total
        traffic = 24 * feeds + 24 * grid.num_cells
        hbm = ALVEO_U280.memory_model("hbm2")
        rate = hbm.effective_per_kernel(
            burst_bytes=hbm.chunk_burst_bytes(64, 16))
        estimate = ALVEO_U280.invocation(config, grid, memory="hbm2")
        assert estimate.memory_seconds == pytest.approx(traffic / rate)


class TestCapacity:
    def test_fits(self):
        m = model(capacity=1024)
        assert m.fits(1024)
        assert not m.fits(1025)
