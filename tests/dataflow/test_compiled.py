"""Units for the batched-execution compiler (:mod:`repro.dataflow.compiled`).

The compiled plan is the graph's tick order, stream rows and stream
index, and the event calendar must bound windows at tracer samples,
freeze boundaries and previewed fault strikes.
"""

import pytest

from repro.dataflow.compiled import (
    EventCalendar,
    compile_graph,
    period_deltas,
)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.faults import FaultPlan, FaultSpec


def pipeline(n_items=50, *, depth=4):
    g = DataflowGraph("p")
    src = g.add(SourceStage("src", range(n_items)))
    fn = g.add(FunctionStage("fn", lambda x: x + 1, latency=4))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", fn, "in", depth=depth)
    g.connect(fn, "out", sink, "in", depth=depth)
    return g


class TestCompileGraph:
    def test_plan_is_the_tick_order_and_stream_rows(self):
        g = pipeline()
        compiled = compile_graph(g)
        assert compiled.order == g.topological_order()
        assert compiled.streams == list(g.streams)
        assert compiled.stream_index == {
            s.name: i for i, s in enumerate(g.streams)}


class TestEventCalendar:
    def test_monitor_strides_cap_the_window(self):
        cal = EventCalendar(sample_every=64)
        # Starting right after a sample, the next one is 63 cycles out.
        assert cal.cap_cycles(1) == 63
        assert cal.cap_cycles(64) == 0
        # The nearer of the next sample and the next freeze boundary.
        both = EventCalendar(sample_every=64, freeze={"fn": (40, 70)})
        assert both.cap_cycles(10) == 30
        assert both.cap_cycles(41) == 23

    def test_every_cycle_monitors_are_dropped_by_construction(self):
        cal = EventCalendar(sample_every=1)
        assert cal.sample_every is None
        assert cal.cap_cycles(7) is None

    def test_freeze_boundaries_cap_the_window(self):
        cal = EventCalendar(freeze={"fn": (40, 70)})
        assert cal.boundaries == (40, 70)
        assert cal.cap_cycles(10) == 30
        assert cal.cap_cycles(41) == 29
        assert cal.cap_cycles(71) is None

    def test_unbounded_without_events(self):
        assert EventCalendar().cap_cycles(123) is None

    def test_cap_periods_rounds_down_to_whole_periods(self):
        cal = EventCalendar(sample_every=100)
        # 99 cycles free from cycle 1, period 10 -> 9 whole periods.
        assert cal.cap_periods(1, 10, 50, ()) == 9

    def test_fault_preview_caps_at_the_strike_free_prefix(self):
        plan = FaultPlan([FaultSpec(site="fifo", kind="drop", match="s",
                                    probability=1.0, count=None)])
        cal = EventCalendar(plan=plan, hooked=("s",))
        # Every push strikes: zero safe periods at one push per period.
        assert cal.cap_periods(0, 10, 5, [("s", 1)]) == 0

    def test_commit_advances_the_occurrence_counters(self):
        plan = FaultPlan([FaultSpec(site="fifo", kind="drop", match="s",
                                    probability=0.5, count=None)], seed=1)
        scalar = FaultPlan([FaultSpec(site="fifo", kind="drop", match="s",
                                      probability=0.5, count=None)], seed=1)
        cal = EventCalendar(plan=plan, hooked=("s",))
        cal.commit(6, [("s", 2)])  # 12 pushes skipped
        for _ in range(12):
            scalar.draw("fifo", "s")
        # After identical counter advances, future previews agree.
        assert plan.fifo_strike_within("s", 40) \
            == scalar.fifo_strike_within("s", 40)


class TestPeriodDeltas:
    def test_deltas_measure_counter_movement(self):
        g = pipeline()
        compiled = compile_graph(g)
        snap_stage = tuple(
            (s.stats.fires, s.stats.retired, s.stats.input_stalls,
             s.stats.output_stalls, s.stats.ii_waits,
             s.stats.pipeline_full_stalls) for s in compiled.order)
        snap_stream = tuple(
            (s.stats.pushes, s.stats.pops, s.stats.full_stalls,
             s.stats.empty_stalls) for s in compiled.streams)
        for cycle in range(10):
            for stage in compiled.order:
                stage.tick(cycle)
        d_stage, d_stream = period_deltas(
            compiled.order, compiled.streams, (snap_stage, snap_stream))
        assert d_stage.shape == (3, 6)
        assert d_stream.shape == (2, 4)
        src_row = compiled.order.index(g.stage("src"))
        assert d_stage[src_row, 0] == compiled.order[src_row].stats.fires
        for name, i in compiled.stream_index.items():
            assert d_stream[i, 0] == g.stream(name).stats.pushes
            assert d_stream[i, 1] == g.stream(name).stats.pops
