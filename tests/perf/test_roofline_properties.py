"""Property tests: the roofline identity and the calibration registry.

The roofline has one defining identity — attainable performance is
``min(compute peak, feed rate x intensity)`` — and one structural
consequence: the bound classification flips exactly at the ridge point.
:class:`~repro.backend.AIEngineProjection`, which the ``versal_aie``
backend's roofline cross-checks against, carries both; these properties
check them over drawn projections.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import AIEngineProjection
from repro.constants import average_ops_per_cycle
from repro.errors import ConfigurationError
from repro.perf.calibration import CALIBRATION, paper_value

positive = st.floats(min_value=1e-3, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


@st.composite
def projections(draw):
    """An engine array and its feed: ceilings from 1e-3 to 1e6 GFLOPS."""
    return AIEngineProjection(
        name="p",
        engines=draw(st.integers(1, 1000)),
        clock_ghz=draw(positive),
        flops_per_engine_cycle=draw(st.integers(1, 16)),
        fabric_feed_bandwidth=draw(positive) * 1e9,
    )


def ceilings(projection, column_height=64):
    """(compute, feed) ceilings in GFLOPS at 12 bytes a cell."""
    ops = average_ops_per_cycle(column_height)
    return (projection.cells_per_second_compute(column_height) * ops / 1e9,
            projection.cells_per_second_feed() * ops / 1e9)


class TestRooflineIdentity:
    @settings(max_examples=200, deadline=None)
    @given(projection=projections())
    def test_attainable_is_min_of_ceilings(self, projection):
        assert projection.attainable_gflops() == min(ceilings(projection))

    @settings(max_examples=200, deadline=None)
    @given(projection=projections())
    def test_attainable_never_exceeds_either_ceiling(self, projection):
        compute, feed = ceilings(projection)
        attainable = projection.attainable_gflops()
        assert 0 < attainable <= compute
        assert attainable <= feed
        assert attainable <= projection.compute_peak_gflops * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(projection=projections())
    def test_classification_flips_at_ridge_point(self, projection):
        compute, feed = ceilings(projection)
        if feed < compute:
            assert projection.feed_bound
            assert projection.attainable_gflops() == feed
        else:
            assert not projection.feed_bound
            assert projection.attainable_gflops() == compute

    @settings(max_examples=100, deadline=None)
    @given(projection=projections(), low=positive, high=positive)
    def test_attainable_monotone_in_intensity(self, projection, low, high):
        """Fewer bytes a cell is a higher intensity: never slower."""
        lo, hi = sorted((low, high))
        assert projection.attainable_gflops(bytes_per_cell=hi) <= \
            projection.attainable_gflops(bytes_per_cell=lo)

    @settings(max_examples=100, deadline=None)
    @given(projection=projections(),
           column_height=st.integers(min_value=2, max_value=4096),
           low=positive, high=positive)
    def test_intensity_monotone_in_traffic(self, projection, column_height,
                                           low, high):
        lo, hi = sorted((low, high))
        assert projection.cells_per_second_feed(bytes_per_cell=hi) <= \
            projection.cells_per_second_feed(bytes_per_cell=lo)
        assert projection.attainable_gflops(
            column_height, bytes_per_cell=hi,
        ) <= projection.attainable_gflops(column_height, bytes_per_cell=lo)

    @settings(max_examples=60, deadline=None)
    @given(bad=st.floats(max_value=0.0, allow_nan=False))
    def test_non_positive_inputs_rejected(self, bad):
        good = dict(name="p", engines=1, clock_ghz=1.0,
                    flops_per_engine_cycle=1, fabric_feed_bandwidth=1.0)
        with pytest.raises(ConfigurationError):
            AIEngineProjection(**{**good, "clock_ghz": bad})
        with pytest.raises(ConfigurationError):
            AIEngineProjection(**{**good, "fabric_feed_bandwidth": bad})
        with pytest.raises(ConfigurationError):
            AIEngineProjection(**good).cells_per_second_feed(
                bytes_per_cell=bad)
        with pytest.raises(ConfigurationError):
            AIEngineProjection(**good).attainable_gflops(
                bytes_per_cell=bad)


class TestCalibrationRegistry:
    def test_keys_are_consistent(self):
        for key, entry in CALIBRATION.items():
            assert entry.key == key

    def test_values_positive_with_units_and_sources(self):
        for entry in CALIBRATION.values():
            assert entry.paper_value > 0
            assert entry.unit
            assert entry.source
            assert entry.pins

    @settings(max_examples=30, deadline=None)
    @given(key=st.sampled_from(sorted(CALIBRATION)))
    def test_paper_value_returns_the_entry(self, key):
        assert paper_value(key) == CALIBRATION[key].paper_value

    def test_unknown_key_raises_with_catalog(self):
        with pytest.raises(KeyError, match="unknown calibration key"):
            paper_value("table9.না")

    def test_kernel_count_anchors_present(self):
        # The tuner's sanity anchors trace back to these entries.
        assert paper_value("multi.u280_kernels") == 6
        assert paper_value("multi.stratix_kernels") == 5
