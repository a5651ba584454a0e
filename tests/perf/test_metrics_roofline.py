"""Metric containers, paper comparisons, and the roofline reasoning."""

import dataclasses

import pytest

from repro.backend import VERSAL_VC1902, AIEngineProjection
from repro.constants import PAPER_GRID_LABELS, average_ops_per_cycle
from repro.core.flops import grid_flops
from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.hardware import ALVEO_U280, STRATIX10_GX2800, TESLA_V100
from repro.kernel.config import KernelConfig
from repro.perf.metrics import KernelMetrics, compare_to_paper
from repro.runtime.session import AdvectionSession


class TestKernelMetrics:
    def test_efficiency_derived(self):
        m = KernelMetrics(device="x", grid_cells=100, gflops=10.0,
                          runtime_seconds=1.0, watts=50.0)
        assert m.gflops_per_watt == pytest.approx(0.2)

    def test_efficiency_none_without_watts(self):
        m = KernelMetrics(device="x", grid_cells=100, gflops=10.0,
                          runtime_seconds=1.0)
        assert m.gflops_per_watt is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            KernelMetrics(device="x", grid_cells=1, gflops=-1.0,
                          runtime_seconds=1.0)


class TestPaperComparison:
    def test_ratio_and_error(self):
        c = compare_to_paper("x", measured=11.0, paper=10.0)
        assert c.ratio == pytest.approx(1.1)
        assert c.percent_error == pytest.approx(10.0)
        assert c.within(10.01)
        assert not c.within(9.0)

    def test_zero_paper_value_rejected(self):
        with pytest.raises(ConfigurationError):
            _ = compare_to_paper("x", 1.0, 0.0).ratio

    def test_str_contains_both_values(self):
        text = str(compare_to_paper("thing", 1.5, 2.0))
        assert "thing" in text and "1.5" in text and "2" in text


class TestRoofline:
    """The roofline reasoning of Figs. 5 and 6, read from the priced
    models: the session's PCIe traffic and the §V projection's two
    ceilings."""

    @pytest.fixture
    def grid(self):
        return Grid.from_cells(PAPER_GRID_LABELS["16M"])

    def test_advection_intensity_is_low(self, grid):
        """~1.3 FLOP/byte end-to-end: 48 B/cell over PCIe, plus the
        chunks' halo re-reads, for ~63 FLOPs a cell."""
        chunks = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid)
                                  ).chunk_work(grid)
        traffic = sum(c.in_bytes + c.out_bytes for c in chunks)
        intensity = grid_flops(grid) / traffic
        assert 1.2 < intensity < average_ops_per_cycle(grid.nz) / 48.0

    def test_one_directional_intensity(self, grid):
        chunks = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid)
                                  ).chunk_work(grid)
        assert grid_flops(grid) / sum(c.out_bytes for c in chunks) == \
            pytest.approx(average_ops_per_cycle(grid.nz) / 24.0)

    def test_roofline_min(self):
        fed = AIEngineProjection(name="fed", engines=10, clock_ghz=1.0,
                                 flops_per_engine_cycle=1,
                                 fabric_feed_bandwidth=1e12)
        starved = dataclasses.replace(fed, fabric_feed_bandwidth=12e7)
        # 10 GFLOPS of engines; a 1e7 cells/s feed caps the starved one.
        assert fed.attainable_gflops() == pytest.approx(10.0)
        assert starved.attainable_gflops() == pytest.approx(
            1e7 * average_ops_per_cycle(64) / 1e9)

    def test_point_bandwidth_bound_detection(self):
        """§V: keeping the Versal's engines fed is the limit."""
        assert VERSAL_VC1902.feed_bound
        assert VERSAL_VC1902.attainable_gflops() == pytest.approx(
            VERSAL_VC1902.cells_per_second_feed()
            * average_ops_per_cycle(64) / 1e9)
        assert VERSAL_VC1902.attainable_gflops() < \
            VERSAL_VC1902.compute_peak_gflops

    def test_every_paper_device_is_pcie_bound_end_to_end(self):
        """The structural conclusion of Figs. 5/6: with 48 B/cell over
        PCIe, an overlapped run keeps the link busier than the kernel on
        every paper accelerator (at 268M the U280 spills to DDR and turns
        kernel-bound, as in Fig. 6)."""
        for label in ("16M", "67M"):
            grid = Grid.from_cells(PAPER_GRID_LABELS[label])
            for device in (ALVEO_U280, STRATIX10_GX2800, TESLA_V100):
                run = AdvectionSession(device, KernelConfig(grid=grid)).run(
                    grid, overlapped=True)
                assert run.transfer_seconds > run.kernel_seconds, \
                    (label, device.name)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VERSAL_VC1902.cells_per_second_feed(bytes_per_cell=0.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(VERSAL_VC1902, clock_ghz=0.0)
