"""PCIe link, clock scaling and power models."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.clock import ClockModel
from repro.hardware.pcie import PCIeLink
from repro.hardware.power import PowerModel
from repro.runtime.overlap import (ChunkWork, build_overlapped_schedule,
                                   build_sequential_schedule)
from repro.runtime.simulator import simulate_schedule


def round_trip(link, *, overlapped):
    """Makespan of 2 GB down and 2 GB back, in two chunks when
    overlapped, with no kernel time."""
    if overlapped:
        queue = build_overlapped_schedule(
            [ChunkWork(index=i, in_bytes=1e9, out_bytes=1e9,
                       kernel_seconds=0.0) for i in range(2)], link)
    else:
        queue = build_sequential_schedule(2e9, 2e9, 0.0, link)
    return simulate_schedule(queue).makespan


class TestPCIeLink:
    def test_streamed_faster_than_synchronous(self):
        link = PCIeLink(streamed_bandwidth=12e9, synchronous_bandwidth=4e9)
        nbytes = 1e9
        assert link.transfer_time(nbytes, streamed=True) < link.transfer_time(
            nbytes, streamed=False)

    def test_latency_added_once(self):
        link = PCIeLink(streamed_bandwidth=1e9, synchronous_bandwidth=1e9,
                        latency=1e-3)
        assert link.transfer_time(1e9, streamed=True) == pytest.approx(
            1.0 + 1e-3)

    def test_zero_bytes_is_free(self):
        link = PCIeLink(streamed_bandwidth=1e9, synchronous_bandwidth=1e9,
                        latency=1e-3)
        assert link.transfer_time(0.0, streamed=True) == 0.0

    def test_round_trip_duplex_concurrent(self):
        """On a duplex link the overlapped schedule reads chunk 0 back
        while chunk 1 is still going down: 3 s, not 4."""
        link = PCIeLink(streamed_bandwidth=1e9, synchronous_bandwidth=1e9,
                        latency=0.0, duplex=True)
        assert round_trip(link, overlapped=True) == pytest.approx(3.0)

    def test_round_trip_serial(self):
        """The sequential schedule synchronises between the whole write
        and the whole read: their times add."""
        link = PCIeLink(streamed_bandwidth=1e9, synchronous_bandwidth=1e9,
                        latency=0.0, duplex=True)
        assert round_trip(link, overlapped=False) == pytest.approx(4.0)

    def test_non_duplex_never_concurrent(self):
        link = PCIeLink(streamed_bandwidth=1e9, synchronous_bandwidth=1e9,
                        latency=0.0, duplex=False)
        assert round_trip(link, overlapped=True) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PCIeLink(streamed_bandwidth=0.0, synchronous_bandwidth=1.0)
        with pytest.raises(ConfigurationError):
            PCIeLink(streamed_bandwidth=1e9, synchronous_bandwidth=2e9)
        with pytest.raises(ConfigurationError):
            PCIeLink(streamed_bandwidth=2e9, synchronous_bandwidth=1e9,
                     latency=-1.0)
        with pytest.raises(ConfigurationError):
            PCIeLink(streamed_bandwidth=1e9,
                     synchronous_bandwidth=1e9).transfer_time(
                         -1.0, streamed=True)


class TestClockModel:
    def test_constant_clock(self):
        clock = ClockModel.constant(300.0)
        assert clock.frequency_mhz(1) == 300.0
        assert clock.frequency_mhz(6) == 300.0

    def test_table_lookup_and_tail(self):
        clock = ClockModel(table_mhz=(398.0, 360.0, 325.0, 285.0, 250.0))
        assert clock.frequency_mhz(1) == 398.0
        assert clock.frequency_mhz(5) == 250.0
        assert clock.frequency_mhz(9) == 250.0  # past the table: last entry

    def test_frequency_hz(self):
        assert ClockModel.constant(300.0).frequency_hz(1) == 300e6

    def test_rejects_increasing_table(self):
        with pytest.raises(ConfigurationError):
            ClockModel(table_mhz=(200.0, 300.0))

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ClockModel(table_mhz=())
        with pytest.raises(ConfigurationError):
            ClockModel(table_mhz=(300.0, 0.0))

    def test_rejects_bad_kernel_count(self):
        with pytest.raises(ConfigurationError):
            ClockModel.constant(300.0).frequency_hz(0)


class TestPowerModel:
    @pytest.fixture
    def power(self):
        return PowerModel(static_watts=30.0, dynamic_watts_per_kernel=5.0,
                          memory_watts={"hbm2": 6.0, "ddr": 18.0},
                          transfer_watts=4.0)

    def test_active_watts_composition(self, power):
        assert power.active_watts(6, "hbm2") == pytest.approx(66.0)
        assert power.active_watts(6, "hbm2",
                                  transferring=True) == pytest.approx(70.0)

    def test_memory_delta(self, power):
        """The U280's measured +12 W when moving from HBM2 to DDR."""
        assert power.active_watts(6, "ddr") - power.active_watts(
            6, "hbm2") == pytest.approx(12.0)

    def test_idle_kernels_no_memory_power(self, power):
        assert power.active_watts(0, "hbm2") == pytest.approx(30.0)

    def test_unknown_memory_rejected(self, power):
        with pytest.raises(ConfigurationError):
            power.active_watts(1, "optane")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerModel(static_watts=0.0, dynamic_watts_per_kernel=1.0,
                       memory_watts={})
        with pytest.raises(ConfigurationError):
            PowerModel(static_watts=1.0, dynamic_watts_per_kernel=-1.0,
                       memory_watts={})
        with pytest.raises(ConfigurationError):
            PowerModel(static_watts=1.0, dynamic_watts_per_kernel=1.0,
                       memory_watts={"x": -2.0})
