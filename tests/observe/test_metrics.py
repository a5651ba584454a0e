"""Metric registry: counters, gauges, histograms, label sets."""

import pytest

from repro.errors import ConfigurationError
from repro.observe import HistogramValue, MetricRegistry


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        registry = MetricRegistry()
        fires = registry.counter("stage_fires")
        fires.inc(3, stage="read")
        fires.inc(2, stage="read")
        fires.inc(5, stage="write")
        assert fires.value(stage="read") == 5
        assert fires.value(stage="write") == 5
        assert fires.value(stage="absent") == 0

    def test_negative_increment_rejected(self):
        counter = MetricRegistry().counter("n")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_label_order_is_canonical(self):
        counter = MetricRegistry().counter("n")
        counter.inc(1, a="x", b="y")
        counter.inc(1, b="y", a="x")
        assert counter.value(a="x", b="y") == 2


class TestGauge:
    def test_set_is_last_write_wins(self):
        gauge = MetricRegistry().gauge("depth")
        gauge.set(5, stream="s")
        gauge.set(2, stream="s")
        assert gauge.value(stream="s") == 2

    def test_set_max_keeps_high_water(self):
        gauge = MetricRegistry().gauge("high")
        gauge.set_max(5, stream="s")
        gauge.set_max(2, stream="s")
        gauge.set_max(9, stream="s")
        assert gauge.value(stream="s") == 9


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricRegistry().histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 1.7, 99.0):
            hist.observe(v)
        value = hist.value()
        assert value.counts == [1, 2]
        assert value.overflow == 1
        assert value.total == 4
        assert value.mean == pytest.approx((0.5 + 1.5 + 1.7 + 99.0) / 4)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_merge_requires_identical_bounds(self):
        a = HistogramValue(bounds=(1.0,))
        b = HistogramValue(bounds=(2.0,))
        with pytest.raises(ConfigurationError):
            a.merge(b)


class TestRegistry:
    def test_factories_are_idempotent(self):
        registry = MetricRegistry()
        assert registry.counter("n") is registry.counter("n")

    def test_kind_mismatch_rejected(self):
        registry = MetricRegistry()
        registry.counter("n")
        with pytest.raises(ConfigurationError):
            registry.gauge("n")

    def test_disabled_registry_is_a_no_op(self):
        registry = MetricRegistry(enabled=False)
        registry.counter("n").inc(5)
        registry.gauge("g").set_max(3)
        registry.histogram("h").observe(1.0)
        assert registry.counter("n").value() == 0
        assert registry.gauge("g").value() == 0
        assert registry.histogram("h").value().total == 0

    def test_snapshot_and_text_are_sorted_and_stable(self):
        registry = MetricRegistry()
        registry.counter("z_last", " zzz").inc(1, stage="s")
        registry.gauge("a_first").set(2)
        snap = registry.snapshot()
        assert list(snap) == ["a_first", "z_last"]
        text = registry.render_text()
        assert "# TYPE z_last counter" in text
        assert 'z_last{stage="s"} 1' in text

    def test_histogram_text_exposes_count_and_sum(self):
        registry = MetricRegistry()
        registry.histogram("h").observe(0.5, stage="s")
        text = registry.render_text()
        assert 'h_count{stage="s"} 1' in text
        assert 'h_sum{stage="s"} 0.5' in text
