"""The §V next-generation AI-engine projection."""

import pytest

from repro.errors import ConfigurationError
from repro.backend import (
    STRATIX10_NX_PROJECTION,
    VERSAL_VC1902,
    AIEngineProjection,
)


class TestVersalProjection:
    def test_paper_peak_arithmetic(self):
        """400 engines x 1 GHz x 8 SP FLOPs/cycle = 3.2 TFLOPS."""
        assert VERSAL_VC1902.compute_peak_gflops == pytest.approx(3200.0)

    def test_feed_bound_as_paper_predicts(self):
        """'keeping the engines fed with data will be the key' — the
        projection is feed-bound, not compute-bound."""
        assert VERSAL_VC1902.feed_bound

    def test_attainable_below_raw_peak(self):
        attainable = VERSAL_VC1902.attainable_gflops()
        assert attainable < VERSAL_VC1902.compute_peak_gflops
        assert attainable > 1000.0  # still a massive step over the U280

    def test_speedup_over_current_alveo(self):
        """Projected single-precision speedup over the 6-kernel U280's
        ~87 GFLOPS kernel capacity is an order of magnitude."""
        speedup = VERSAL_VC1902.speedup_over(87.0)
        assert speedup > 10.0

    def test_stratix_nx_also_projected(self):
        assert STRATIX10_NX_PROJECTION.compute_peak_gflops > 1000.0
        assert STRATIX10_NX_PROJECTION.attainable_gflops() > 0.0


class TestRooflineMechanics:
    def test_cells_per_second_consistency(self):
        proj = AIEngineProjection("t", engines=10, clock_ghz=1.0,
                                  flops_per_engine_cycle=8,
                                  fabric_feed_bandwidth=1e12)
        # Plenty of feed: compute-bound.
        assert not proj.feed_bound
        assert proj.attainable_gflops() == pytest.approx(
            proj.compute_peak_gflops, rel=1e-6)

    def test_starved_fabric(self):
        proj = AIEngineProjection("t", engines=1000, clock_ghz=1.0,
                                  flops_per_engine_cycle=8,
                                  fabric_feed_bandwidth=1e9)
        assert proj.feed_bound
        # Attainable = cells_fed * ops: 1e9/12 cells/s * 62.875 ops.
        assert proj.attainable_gflops() == pytest.approx(
            (1e9 / 12) * 62.875 / 1e9, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AIEngineProjection("t", engines=0, clock_ghz=1.0,
                               flops_per_engine_cycle=8,
                               fabric_feed_bandwidth=1e9)
        with pytest.raises(ConfigurationError):
            AIEngineProjection("t", engines=1, clock_ghz=0.0,
                               flops_per_engine_cycle=8,
                               fabric_feed_bandwidth=1e9)
        with pytest.raises(ConfigurationError):
            VERSAL_VC1902.speedup_over(0.0)
        with pytest.raises(ConfigurationError):
            VERSAL_VC1902.cells_per_second_feed(bytes_per_cell=0.0)
