"""Batched exact execution reproduces scalar ticking bit-for-bit.

``DataflowEngine(mode="exact", batched=True)`` — the default — must be
observationally *identical* to the forced-scalar per-cycle loop: same
cycle count, same per-stage fire and stall counters, same stream
high-water marks, same sink data, same fault traces, same strided
tracer samples.  The only legal differences are the engine's own
``batched_windows`` / ``batched_cycles`` / ``batch_fallback_reason``
accounting fields.  These tests sweep the event machinery that bounds
or vetoes windows: tracer sample strides, fault plans (drops, corrupts,
freezes), watchdogs, and the metric/tracer surfaces.
"""

import pytest

from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import (
    ConstStage,
    FunctionStage,
    SinkStage,
    SourceStage,
)
from repro.errors import FaultError, WatchdogTimeout
from repro.faults import FaultPlan, FaultSpec
from repro.observe import MetricRegistry, Tracer


def pipeline(n_items=300, *, fn_ii=1, fn_latency=4, depth=4):
    g = DataflowGraph("p")
    src = g.add(SourceStage("src", range(n_items)))
    fn = g.add(FunctionStage("fn", lambda x: 2 * x, ii=fn_ii,
                             latency=fn_latency))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", fn, "in", depth=depth)
    g.connect(fn, "out", sink, "in", depth=depth)
    return g


def run_both(build, *, scalar_kwargs=None, batched_kwargs=None,
             **engine_kwargs):
    """Run a freshly built graph scalar and batched; return
    ((stats, graph), (stats, graph)) — graphs are stateful."""
    g_scalar = build()
    stats_scalar = DataflowEngine(
        g_scalar, mode="exact", batched=False,
        **{**engine_kwargs, **(scalar_kwargs or {})}).run()
    g_batched = build()
    stats_batched = DataflowEngine(
        g_batched, mode="exact", batched=True,
        **{**engine_kwargs, **(batched_kwargs or {})}).run()
    return (stats_scalar, g_scalar), (stats_batched, g_batched)


def sampled_cycles(tracer):
    """The cycles a tracer's ``sample_every`` stride sampled, in order."""
    return [c.ts for c in tracer.counters if c.name == "stage_fires"]


def assert_windows_between_samples(tracer):
    """No batched window of a traced run covers a sampled cycle."""
    samples = sampled_cycles(tracer)
    for span in tracer.spans:
        if span.category == "batched":
            assert not any(span.start <= ts < span.end for ts in samples), \
                (span, samples)


def assert_identical(scalar, batched):
    stats_scalar, g_scalar = scalar
    stats_batched, g_batched = batched
    # Everything except the engine's own batching accounting matches.
    d_scalar, d_batched = stats_scalar.to_dict(), stats_batched.to_dict()
    for key in ("batched_windows", "batched_cycles",
                "batch_fallback_reason"):
        d_scalar.pop(key), d_batched.pop(key)
    assert d_batched == d_scalar
    for s_scalar, s_batched in zip(g_scalar.streams, g_batched.streams):
        assert s_batched.stats.pushes == s_scalar.stats.pushes
        assert s_batched.stats.pops == s_scalar.stats.pops
        assert s_batched.occupancy == s_scalar.occupancy
    for stage in g_scalar.stages:
        if isinstance(stage, SinkStage):
            assert (g_batched.stage(stage.name).collected
                    == stage.collected), stage.name


class TestEquivalence:
    @pytest.mark.parametrize("ii,latency,depth", [
        (1, 1, 2),
        (1, 4, 4),
        (2, 4, 4),
        (3, 7, 2),
        (1, 16, 8),
    ])
    def test_pipeline_shapes(self, ii, latency, depth):
        scalar, batched = run_both(
            lambda: pipeline(300, fn_ii=ii, fn_latency=latency, depth=depth))
        assert_identical(scalar, batched)
        stats_batched, _ = batched
        # The point of the mode: most of the run must actually be batched.
        assert stats_batched.batched_windows >= 1
        assert stats_batched.batched_cycles > stats_batched.cycles // 2

    def test_a_long_run_is_mostly_batched(self):
        stats = DataflowEngine(pipeline(5000)).run()
        assert stats.batched_cycles > 4000
        assert stats.batched_windows >= 1

    def test_scalar_run_reports_no_batching(self):
        (stats_scalar, _), _ = run_both(lambda: pipeline(100))
        assert stats_scalar.batched_windows == 0
        assert stats_scalar.batched_cycles == 0
        assert stats_scalar.batch_fallback_reason is None

    def test_fast_mode_ignores_the_batched_flag(self):
        # The deprecated alias always runs batched exact.
        g = pipeline(200)
        with pytest.warns(DeprecationWarning, match="mode='fast'"):
            stats = DataflowEngine(g, mode="fast", batched=False).run()
        assert stats.batched_windows >= 1


def run_sampled(build, stride):
    """``run_both`` with an enabled tracer sampling every ``stride``
    cycles on each leg; returns both legs and both tracers."""
    tracers = Tracer(sample_every=stride), Tracer(sample_every=stride)
    scalar, batched = run_both(build, scalar_kwargs={"tracer": tracers[0]},
                               batched_kwargs={"tracer": tracers[1]})
    return scalar, batched, tracers


class TestMonitors:
    """An enabled tracer's strided samples: every stream's occupancy and
    every stage's cumulative fires, on the cycles its stride names."""

    def test_strided_probe_samples_identically(self):
        scalar, batched, (t_scalar, t_batched) = run_sampled(
            lambda: pipeline(400), 64)
        assert_identical(scalar, batched)
        stats, graph = batched
        assert sampled_cycles(t_batched) == list(range(0, stats.cycles, 64))
        occupancy = [c for c in t_batched.counters
                     if c.name == "fifo_occupancy"]
        assert {c.track for c in occupancy} == {"fifo"}
        assert all(set(c.values) == {s.name for s in graph.streams}
                   and max(c.values.values()) <= 4 for c in occupancy)
        assert t_batched.counters == t_scalar.counters
        # Windows exist between the stride-64 sample cycles.
        assert stats.batched_windows >= 1
        assert_windows_between_samples(t_batched)

    def test_throughput_monitor_windows_match(self):
        _, batched, (t_scalar, t_batched) = run_sampled(
            lambda: pipeline(400), 64)
        fires = [c.values["fn"] for c in t_batched.counters
                 if c.name == "stage_fires"]
        rates = [(b - a) / 64 for a, b in zip(fires, fires[1:])]
        # II=1: the steady state fires once a cycle, never faster.
        assert sorted(rates)[len(rates) // 2] == 1.0
        assert max(rates) <= 1.0
        assert t_batched.counters == t_scalar.counters
        assert batched[0].batched_windows >= 1

    def test_every_cycle_monitor_disables_batching_with_reason(self):
        scalar, batched, (t_scalar, t_batched) = run_sampled(
            lambda: pipeline(200), 1)
        assert_identical(scalar, batched)
        stats, _ = batched
        assert stats.batched_windows == 0
        assert "tracer samples every cycle" in stats.batch_fallback_reason
        assert sampled_cycles(t_batched) == list(range(stats.cycles))
        assert t_batched.counters == t_scalar.counters


class TestFaults:
    def test_drop_faults_keep_batching_and_the_trace(self):
        # A capped drop spec: the strike lands on the scalar path at its
        # exact push opportunity, windows re-open afterwards.  The lost
        # word surfaces as the same accounting FaultError in both modes.
        def build():
            return pipeline(300)

        def plan():
            return FaultPlan([FaultSpec(site="fifo", kind="drop",
                                        match="src.out->fn.in", probability=0.01,
                                        count=2)], seed=7)

        plan_scalar, plan_batched = plan(), plan()
        with pytest.raises(FaultError) as err_scalar:
            DataflowEngine(build(), mode="exact", batched=False,
                           fault_plan=plan_scalar).run()
        with pytest.raises(FaultError) as err_batched:
            DataflowEngine(build(), mode="exact", batched=True,
                           fault_plan=plan_batched).run()
        assert str(err_batched.value) == str(err_scalar.value)
        assert plan_batched.trace_key() == plan_scalar.trace_key()

    def test_drop_inside_a_period_measurement_resets_detection(self):
        # Regression: a drop striking *between* a signature's first
        # occurrence and its recurrence pollutes the measured deltas —
        # the producer's retire rate counts the vanished word, the
        # consumer's pop rate does not — so replaying that "period"
        # grows the struck stream by one word per period until the
        # relay overflows its depth.  The strike must instead reset
        # recurrence detection; both modes then die with the same
        # lost-word accounting error.  (Shape found by the Hypothesis
        # property suite; pinned here deterministically.)
        from repro.analyze import build_token_twin
        from repro.lint.spec import SpecStage

        def build():
            g = DataflowGraph("drop-mid-period")
            g.add(SpecStage("src", outputs=("out",), latency=1))
            g.add(SpecStage("l0n0", inputs=("in",), outputs=("o0", "o1"),
                            ii=2, latency=2))
            g.add(SpecStage("l0n1", inputs=("in",), outputs=("o0",),
                            ii=2, latency=5))
            g.add(SpecStage("sink", inputs=("i0", "i1")))
            g.connect("src", "out", "l0n0", "in", depth=1)
            g.connect("l0n0", "o1", "l0n1", "in", depth=1)
            g.connect("l0n0", "o0", "sink", "i0", depth=2)
            g.connect("l0n1", "o0", "sink", "i1", depth=5)
            return build_token_twin(g, 34)

        def plan():
            return FaultPlan([FaultSpec(site="fifo", kind="drop",
                                        match="*", probability=0.01,
                                        count=2)], seed=1)

        plan_scalar, plan_batched = plan(), plan()
        with pytest.raises(FaultError) as err_scalar:
            DataflowEngine(build(), mode="exact", batched=False,
                           fault_plan=plan_scalar).run()
        with pytest.raises(FaultError) as err_batched:
            DataflowEngine(build(), mode="exact", batched=True,
                           fault_plan=plan_batched).run()
        assert str(err_batched.value) == str(err_scalar.value)
        assert plan_batched.trace_key() == plan_scalar.trace_key()

    def test_corrupt_fault_disables_batching_then_matches_scalar(self):
        def plan():
            return FaultPlan([FaultSpec(site="fifo", kind="corrupt",
                                        match="fn.out->sink.in",
                                        probability=0.005)], seed=3)

        plan_scalar, plan_batched = plan(), plan()
        with pytest.raises(FaultError) as err_scalar:
            DataflowEngine(pipeline(300), mode="exact", batched=False,
                           fault_plan=plan_scalar).run()
        with pytest.raises(FaultError) as err_batched:
            DataflowEngine(pipeline(300), mode="exact", batched=True,
                           fault_plan=plan_batched).run()
        assert str(err_batched.value) == str(err_scalar.value)
        assert plan_batched.trace_key() == plan_scalar.trace_key()
        assert "ECC" in str(err_batched.value) or "corrupted" in str(
            err_batched.value)

    def test_freeze_window_forces_scalar_then_rebatches(self):
        def plan():
            return FaultPlan([FaultSpec(site="stage", kind="freeze",
                                        match="fn", at_cycle=40,
                                        cycles=30)], seed=0)

        scalar, batched = run_both(
            lambda: pipeline(300), stall_grace=64,
            scalar_kwargs={"fault_plan": plan()},
            batched_kwargs={"fault_plan": plan()})
        assert_identical(scalar, batched)
        stats_batched, _ = batched
        # Batching resumes after the freeze window: the frozen region
        # ticks scalar, the steady tail is still batched.
        assert stats_batched.batched_windows >= 1

    def test_certain_fifo_fault_batches_nothing_early(self):
        # probability=1, persistent: every push strikes, so the preview
        # caps every window at zero strike-free pushes — all drops land
        # exactly as the scalar engine lands them.
        def plan():
            return FaultPlan([FaultSpec(site="fifo", kind="drop",
                                        match="src.out->fn.in", probability=1.0,
                                        count=None)], seed=0)

        plan_scalar, plan_batched = plan(), plan()
        with pytest.raises(FaultError) as err_scalar:
            DataflowEngine(pipeline(120), mode="exact", batched=False,
                           fault_plan=plan_scalar).run()
        with pytest.raises(FaultError) as err_batched:
            DataflowEngine(pipeline(120), mode="exact", batched=True,
                           fault_plan=plan_batched).run()
        assert str(err_batched.value) == str(err_scalar.value)
        assert plan_batched.trace_key() == plan_scalar.trace_key()


class TestWatchdog:
    def test_watchdog_budget_is_not_overshot_by_a_window(self):
        # A window may never advance past the watchdog cap: the batched
        # run must raise the same typed timeout as the scalar loop.
        def build():
            g = DataflowGraph("w")
            src = g.add(ConstStage("const", 1, 10_000))
            sink = g.add(SinkStage("sink"))
            g.connect(src, "out", sink, "in", depth=4)
            return g

        with pytest.raises(WatchdogTimeout):
            DataflowEngine(build(), mode="exact", batched=False,
                           watchdog=500).run()
        with pytest.raises(WatchdogTimeout):
            DataflowEngine(build(), mode="exact", batched=True,
                           watchdog=500).run()

    def test_watchdog_that_never_fires_is_equivalent(self):
        scalar, batched = run_both(lambda: pipeline(200), watchdog=100_000)
        assert_identical(scalar, batched)


class TestObservability:
    def test_tracer_emits_batched_window_spans(self):
        tracer = Tracer(enabled=True)
        g = pipeline(300)
        stats = DataflowEngine(g, mode="exact", batched=True,
                               tracer=tracer).run()
        assert stats.batched_windows >= 1
        spans = [s for s in tracer.spans if s.category == "batched"]
        assert len(spans) == stats.batched_windows
        assert sum(s.end - s.start for s in spans) == stats.batched_cycles
        # No stage of a plain pipeline has an inner regime.
        assert {s.args["level"] for s in spans} == {"outer"}

    def test_metrics_carry_the_batched_counters(self):
        registry = MetricRegistry(enabled=True)
        g = pipeline(300)
        stats = DataflowEngine(g, mode="exact", batched=True,
                               metrics=registry).run()
        snapshot = registry.snapshot()
        assert snapshot["batched_windows"]["samples"][0]["value"] \
            == stats.batched_windows
        assert snapshot["scalar_fallback_cycles"]["samples"][0]["value"] \
            == stats.cycles - stats.batched_cycles

    def test_fallback_reason_reaches_metrics_and_summary(self):
        registry = MetricRegistry(enabled=True)
        g = pipeline(200)
        stats = DataflowEngine(
            g, mode="exact", batched=True, metrics=registry,
            tracer=Tracer(sample_every=1)).run()
        reason = stats.batch_fallback_reason
        assert reason is not None and "tracer" in reason
        assert registry.counter("batch_fallbacks").value(reason=reason) == 1
        assert f"batched fallback: {reason}" in stats.summary()

    def test_summary_reports_the_window_split(self):
        _, batched = run_both(lambda: pipeline(300))
        stats, _ = batched
        text = stats.summary()
        assert f"{stats.batched_cycles} batched" in text
        assert f"{stats.batched_windows} windows" in text


class TestRunStatsPlumbing:
    def test_merge_sums_window_counters_and_joins_reasons(self):
        from repro.dataflow.engine import RunStats

        a = RunStats(cycles=10, fires={}, stalls={}, stream_high_water={},
                     batched_windows=2, batched_cycles=6,
                     batch_fallback_reason="reason a")
        b = RunStats(cycles=20, fires={}, stalls={}, stream_high_water={},
                     batched_windows=3, batched_cycles=15,
                     batch_fallback_reason="reason b")
        merged = RunStats.merge([a, b])
        assert merged.batched_windows == 5
        assert merged.batched_cycles == 21
        assert "reason a" in merged.batch_fallback_reason
        assert "reason b" in merged.batch_fallback_reason

    def test_to_dict_round_trips_the_new_fields(self):
        _, batched = run_both(lambda: pipeline(200))
        stats, _ = batched
        d = stats.to_dict()
        assert d["batched_windows"] == stats.batched_windows
        assert d["batched_cycles"] == stats.batched_cycles
        assert d["batch_fallback_reason"] == stats.batch_fallback_reason
