"""Span-based tracer: deterministic clocks, offsets, cheap disabling."""

import pytest

from repro.errors import ConfigurationError
from repro.observe import Tracer


class TestSpans:
    def test_add_span_records_interval(self):
        tracer = Tracer()
        tracer.add_span("work", "engine", 10, 25, category="stage", fires=3)
        (span,) = tracer.spans
        assert span.start == 10 and span.end == 25
        assert span.duration == 15
        assert span.args == {"fires": 3}

    def test_backwards_span_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.add_span("bad", "engine", 10, 5)

    def test_span_context_manager_reads_clock(self):
        clock = iter([100.0, 140.0])
        tracer = Tracer(clock=lambda: next(clock))
        with tracer.span("tick", "engine"):
            pass
        (span,) = tracer.spans
        assert (span.start, span.end) == (100.0, 140.0)

    def test_now_without_clock_raises(self):
        with pytest.raises(ConfigurationError):
            Tracer().now()


class TestShifted:
    def test_shifted_offsets_all_records(self):
        tracer = Tracer()
        with tracer.shifted(1000):
            tracer.add_span("chunk", "kernel", 0, 50)
            tracer.instant("seam", "kernel", ts=50)
            tracer.counter("fifo", "kernel", 25, depth=2)
        assert tracer.spans[0].start == 1000
        assert tracer.spans[0].end == 1050
        assert tracer.instants[0].ts == 1050
        assert tracer.counters[0].ts == 1025

    def test_shifts_nest_and_unwind(self):
        tracer = Tracer()
        with tracer.shifted(100):
            with tracer.shifted(10):
                tracer.add_span("inner", "t", 0, 1)
            tracer.add_span("outer", "t", 0, 1)
        tracer.add_span("bare", "t", 0, 1)
        starts = [s.start for s in tracer.spans]
        assert starts == [110, 100, 0]


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.add_span("a", "t", 0, 1)
        tracer.instant("b", "t", ts=0)
        tracer.counter("c", "t", 0, v=1)
        with tracer.span("d", "t"):  # must not even read the clock
            pass
        assert len(tracer) == 0


class TestQueries:
    def test_tracks_keep_first_recorded_order(self):
        tracer = Tracer()
        tracer.add_span("a", "zeta", 0, 1)
        tracer.instant("b", "alpha", ts=0)
        tracer.add_span("c", "zeta", 1, 2)
        assert tracer.tracks() == ["zeta", "alpha"]

    def test_spans_on_filters_by_track(self):
        tracer = Tracer()
        tracer.add_span("a", "one", 0, 1)
        tracer.add_span("b", "two", 0, 1)
        assert [s.name for s in tracer.spans_on("one")] == ["a"]

    def test_clear_empties_everything(self):
        tracer = Tracer()
        tracer.add_span("a", "t", 0, 1)
        tracer.instant("b", "t", ts=0)
        tracer.clear()
        assert len(tracer) == 0 and tracer.tracks() == []


class TestSampling:
    def test_rejects_bad_stride(self):
        for stride in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError, match="sample_every"):
                Tracer(sample_every=stride)
        assert Tracer(sample_every=1).sample_every == 1
        assert Tracer().sample_every is None

    def test_counter_keys_may_be_any_name(self):
        # Sample keys are stage and stream names, chosen by the graph.
        tracer = Tracer()
        tracer.counter("stage_fires", "engine", 4, name=1, track=2, ts=3)
        (sample,) = tracer.counters
        assert (sample.name, sample.track, sample.ts) \
            == ("stage_fires", "engine", 4)
        assert sample.values == {"name": 1.0, "track": 2.0, "ts": 3.0}
