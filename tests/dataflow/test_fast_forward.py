"""The deprecated ``mode="fast"`` alias reproduces exact ticking bit-for-bit.

``mode="fast"`` warns and runs ``mode="exact", batched=True``, the one
accelerated path.  The alias must stay observationally equivalent to
forced-scalar ticking: same cycle count, same per-stage fire and stall
counters, same stream high-water marks, same sink data in the same
order.  These tests sweep graph shapes (II, latency, FIFO depth) through
the alias, plus the engine's mode, monitor-stride and cycle-cap options
and the RunStats aggregation helpers.
"""

import pytest

from repro.dataflow.engine import DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.monitors import StreamProbe
from repro.dataflow.stage import (
    ConstStage,
    FunctionStage,
    SinkStage,
    SourceStage,
)
from repro.errors import DataflowError

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def pipeline(n_items=300, *, fn_ii=1, fn_latency=4, depth=4):
    g = DataflowGraph("p")
    src = g.add(SourceStage("src", range(n_items)))
    fn = g.add(FunctionStage("fn", lambda x: 2 * x, ii=fn_ii,
                             latency=fn_latency))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", fn, "in", depth=depth)
    g.connect(fn, "out", sink, "in", depth=depth)
    return g


def const_pipeline(count=200, *, ii=1):
    g = DataflowGraph("c")
    src = g.add(ConstStage("const", 7, count, ii=ii))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", sink, "in", depth=4)
    return g


def run_both(build, **engine_kwargs):
    """Run a freshly built graph forced-scalar and through the alias;
    return (scalar, fast) pairs of (stats, graph) — graphs are stateful,
    so each run gets its own."""
    g_exact = build()
    stats_exact = DataflowEngine(g_exact, mode="exact", batched=False,
                                 **engine_kwargs).run()
    g_fast = build()
    stats_fast = DataflowEngine(g_fast, mode="fast", **engine_kwargs).run()
    return (stats_exact, g_exact), (stats_fast, g_fast)


def assert_equivalent(exact, fast):
    stats_exact, g_exact = exact
    stats_fast, g_fast = fast
    assert stats_fast.cycles == stats_exact.cycles
    assert stats_fast.fires == stats_exact.fires
    assert stats_fast.stalls == stats_exact.stalls
    assert stats_fast.stream_high_water == stats_exact.stream_high_water
    for stage in g_exact.stages:
        if isinstance(stage, SinkStage):
            assert (g_fast.stage(stage.name).collected
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
        exact, fast = run_both(
            lambda: pipeline(300, fn_ii=ii, fn_latency=latency, depth=depth))
        assert_equivalent(exact, fast)
        stats_fast, _ = fast
        # The alias accelerates: most of the run must actually be batched.
        assert stats_fast.batched_windows > 0
        assert stats_fast.batched_cycles > stats_fast.cycles // 2

    def test_const_stage(self):
        exact, fast = run_both(lambda: const_pipeline(200))
        assert_equivalent(exact, fast)

    def test_const_stage_ii3(self):
        exact, fast = run_both(lambda: const_pipeline(150, ii=3))
        assert_equivalent(exact, fast)

    def test_mixed_ii_chain(self):
        """A bottleneck mid-chain (II=2) shapes the whole steady state."""
        def build():
            g = DataflowGraph("chain")
            src = g.add(SourceStage("src", range(250)))
            double = g.add(FunctionStage("double", lambda x: 2 * x,
                                         latency=3))
            negate = g.add(FunctionStage("negate", lambda x: -x, ii=2,
                                         latency=5))
            sink = g.add(SinkStage("sink"))
            g.connect(src, "out", double, "in", depth=4)
            g.connect(double, "out", negate, "in", depth=8)
            g.connect(negate, "out", sink, "in", depth=4)
            return g

        exact, fast = run_both(build)
        assert_equivalent(exact, fast)
        stats_fast, g_fast = fast
        assert stats_fast.batched_windows > 0
        assert g_fast.stage("sink").collected == [-2 * i for i in range(250)]

    def test_short_run_never_diverges(self):
        # Too short for a steady state: the alias must still be exact.
        exact, fast = run_both(lambda: pipeline(5))
        assert_equivalent(exact, fast)

    def test_sink_data_ordered(self):
        _, (stats_fast, g_fast) = run_both(lambda: pipeline(300))
        assert g_fast.stage("sink").collected == [2 * i for i in range(300)]
        assert stats_fast.batched_windows > 0

    def test_fast_alias_warns_and_matches_batched_exact(self):
        g_batched = pipeline(300)
        stats_batched = DataflowEngine(g_batched, mode="exact",
                                       batched=True).run()
        g_fast = pipeline(300)
        with pytest.warns(DeprecationWarning, match="mode='fast'"):
            engine = DataflowEngine(g_fast, mode="fast", batched=False)
        assert (engine.mode, engine.batched) == ("exact", True)
        assert engine.run().to_dict() == stats_batched.to_dict()
        assert (g_fast.stage("sink").collected
                == g_batched.stage("sink").collected)


class TestDisableConditions:
    def test_monitors_force_exact(self):
        g = pipeline(300)
        stream = g.streams[0]
        probe = StreamProbe(stream.name)
        stats = DataflowEngine(g, mode="fast", monitors=[probe]).run()
        assert stats.batched_windows == 0
        assert "samples every cycle" in stats.batch_fallback_reason
        # Every cycle was actually ticked and sampled.
        assert len(probe.samples) >= stats.cycles - 1

    def test_monitor_stride_honoured(self):
        g = pipeline(300)
        stream = g.streams[0]
        probe = StreamProbe(stream.name, stride=10)
        stats = DataflowEngine(g, monitors=[probe]).run()
        assert len(probe.samples) <= stats.cycles // 10 + 1

    def test_exact_mode_never_advances(self):
        stats = DataflowEngine(pipeline(300), mode="exact",
                               batched=False).run()
        assert stats.batched_windows == 0
        assert stats.batched_cycles == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(DataflowError, match="mode"):
            DataflowEngine(pipeline(10), mode="turbo")

    def test_max_cycles_still_enforced_in_fast_mode(self):
        g = pipeline(10_000)
        with pytest.raises(DataflowError, match="did not quiesce"):
            DataflowEngine(g, max_cycles=10, mode="fast").run()


class TestRunStatsMerge:
    def test_merge_adds_counters_and_maxes_high_water(self):
        a = RunStats(cycles=100, fires={"x": 10},
                     stalls={"x": {"input": 1, "ii": 2}},
                     stream_high_water={"s": 3})
        b = RunStats(cycles=40, fires={"x": 4, "y": 7},
                     stalls={"x": {"input": 2}, "y": {"output": 5}},
                     stream_high_water={"s": 2, "t": 9})
        m = RunStats.merge([a, b])
        assert m.cycles == 140
        assert m.fires == {"x": 14, "y": 7}
        assert m.stalls == {"x": {"input": 3, "ii": 2},
                            "y": {"output": 5}}
        assert m.stream_high_water == {"s": 3, "t": 9}

    def test_merge_empty(self):
        m = RunStats.merge([])
        assert m.cycles == 0
        assert m.fires == {}

    def test_merge_keeps_two_distinct_veto_reasons(self):
        runs = [
            RunStats(cycles=10, batch_fallback_reason="monitor attached"),
            RunStats(cycles=10),
            RunStats(cycles=10, batch_fallback_reason="stage vetoed"),
        ]
        m = RunStats.merge(runs)
        assert m.batch_fallback_reason == "monitor attached; stage vetoed"

    def test_merge_deduplicates_repeated_veto_reason(self):
        runs = [RunStats(cycles=5, batch_fallback_reason="stage vetoed")] * 3
        assert RunStats.merge(runs).batch_fallback_reason == "stage vetoed"

    def test_merge_without_vetoes_stays_none(self):
        assert RunStats.merge([RunStats(cycles=5)]).batch_fallback_reason \
            is None

    def test_summary_reports_fast_forward(self):
        stats = RunStats(cycles=500, fires={"fn": 400}, batched_windows=2,
                         batched_cycles=300)
        text = stats.summary()
        assert "300 batched in 2 windows, 200 scalar" in text
        assert "fn" in text

    def test_summary_quiet_without_fast_forward(self):
        stats = RunStats(cycles=500, fires={"fn": 400})
        assert "batched" not in stats.summary()
