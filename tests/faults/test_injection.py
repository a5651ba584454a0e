"""Fault injection through the dataflow engine.

FIFO corruption must be detected at the consumer (never silently
consumed), dropped words must surface as a typed error rather than a
quiet short-count, frozen stages must trip the deadlock guard or the
watchdog, and the deprecated fast alias must surface why batched
execution fell back.
"""

import pytest

from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.dataflow.stream import DROP_WORD, CorruptedWord, Stream
from repro.errors import DataflowError, FaultError, WatchdogTimeout
from repro.faults import FaultPlan, FaultSpec


def pipeline(n_items=60):
    g = DataflowGraph("p")
    src = g.add(SourceStage("src", range(n_items)))
    fn = g.add(FunctionStage("fn", lambda x: 2 * x, ii=1, latency=4))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", fn, "in", depth=4)
    g.connect(fn, "out", sink, "in", depth=4)
    return g


class TestStreamHooks:
    def test_corrupted_word_detected_at_pop(self):
        stream = Stream("s", depth=4)
        stream.fault_hook = lambda item: CorruptedWord(item)
        stream.push(1)
        with pytest.raises(FaultError, match="corrupted word"):
            stream.pop()

    def test_dropped_word_counts_the_push_but_vanishes(self):
        stream = Stream("s", depth=4)
        stream.fault_hook = lambda item: DROP_WORD
        stream.push(1)
        assert stream.stats.pushes == 1
        assert len(stream) == 0

    def test_no_hook_no_interference(self):
        stream = Stream("s", depth=4)
        stream.push(5)
        assert stream.pop() == 5


class TestEngineInjection:
    def test_corrupt_fault_raises_typed_error(self):
        plan = FaultPlan([FaultSpec("fifo", "corrupt", match="src.*")])
        with pytest.raises(FaultError, match="corrupted word"):
            DataflowEngine(pipeline(), fault_plan=plan).run()
        assert len(plan.trace) == 1

    def test_drop_fault_never_silently_corrupts(self):
        plan = FaultPlan([FaultSpec("fifo", "drop", match="src.*")])
        with pytest.raises((FaultError, DataflowError)):
            DataflowEngine(pipeline(), fault_plan=plan).run()

    def test_fault_free_plan_changes_nothing(self):
        golden_g = pipeline()
        golden = DataflowEngine(golden_g).run()
        g = pipeline()
        stats = DataflowEngine(g, fault_plan=FaultPlan([])).run()
        assert stats.cycles == golden.cycles
        assert g.stage("sink").collected == golden_g.stage("sink").collected

    def test_transient_freeze_completes_identically(self):
        golden_g = pipeline()
        golden = DataflowEngine(golden_g).run()
        plan = FaultPlan([FaultSpec("stage", "freeze", match="fn",
                                    at_cycle=5, cycles=3)])
        g = pipeline()
        stats = DataflowEngine(g, fault_plan=plan).run()
        assert g.stage("sink").collected == golden_g.stage("sink").collected
        assert stats.cycles >= golden.cycles

    def test_permanent_freeze_trips_deadlock_guard(self):
        plan = FaultPlan([FaultSpec("stage", "freeze", match="fn",
                                    at_cycle=5)])
        with pytest.raises(DataflowError, match="deadlock"):
            DataflowEngine(pipeline(), fault_plan=plan).run()


class TestWatchdog:
    def test_watchdog_raises_typed_timeout(self):
        # The watchdog budget is tighter than the deadlock grace, so it
        # fires first and wins the race against the deadlock guard.
        plan = FaultPlan([FaultSpec("stage", "freeze", match="fn",
                                    at_cycle=0)])
        with pytest.raises(WatchdogTimeout, match="watchdog"):
            DataflowEngine(pipeline(), fault_plan=plan, watchdog=5).run()

    def test_generous_watchdog_never_fires(self):
        stats = DataflowEngine(pipeline(), watchdog=100_000).run()
        assert stats.cycles < 100_000

    def test_invalid_watchdog_rejected(self):
        with pytest.raises(DataflowError, match="watchdog"):
            DataflowEngine(pipeline(), watchdog=0)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestFastModeDemotion:
    """``mode="fast"`` runs batched exact: a fault plan bounds windows
    instead of demoting the run, and an every-cycle monitor makes it fall
    back to scalar ticking with the reason recorded."""

    def test_monitors_demote_with_reason(self):
        from repro.dataflow.monitors import StreamProbe

        probe = StreamProbe("src.out->fn.in")
        stats = DataflowEngine(pipeline(), mode="fast",
                               monitors=[probe]).run()
        assert stats.batch_fallback_reason is not None
        assert "monitor" in stats.batch_fallback_reason

    def test_clean_fast_run_has_no_reason(self):
        stats = DataflowEngine(pipeline(300), mode="fast").run()
        assert stats.batch_fallback_reason is None
        assert stats.batched_windows > 0

    def test_summary_mentions_demotion(self):
        from repro.dataflow.monitors import StreamProbe

        stats = DataflowEngine(pipeline(), mode="fast",
                               monitors=[StreamProbe("src.out->fn.in")]
                               ).run()
        assert "batched fallback" in stats.summary()
