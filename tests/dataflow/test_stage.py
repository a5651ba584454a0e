"""Tests for stage firing, pipelining and backpressure."""

import pytest

from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import (
    ConstStage,
    FunctionStage,
    SinkStage,
    SourceStage,
    Stage,
)
from repro.dataflow.stream import Stream
from repro.errors import DataflowError, GraphError


def wire(src, dst, depth=8):
    g = DataflowGraph("t")
    g.add(src)
    g.add(dst)
    g.connect(src, "out", dst, "in", depth=depth)
    return g


class TestConstruction:
    def test_rejects_bad_ii(self):
        with pytest.raises(DataflowError):
            FunctionStage("f", lambda x: x, ii=0)

    def test_rejects_bad_latency(self):
        with pytest.raises(DataflowError):
            FunctionStage("f", lambda x: x, latency=0)

    def test_bind_unknown_port_rejected(self):
        s = FunctionStage("f", lambda x: x)
        with pytest.raises(GraphError):
            s.bind_input("bogus", Stream("x"))
        with pytest.raises(GraphError):
            s.bind_output("bogus", Stream("x"))

    def test_double_bind_rejected(self):
        s = FunctionStage("f", lambda x: x)
        s.bind_input("in", Stream("a"))
        with pytest.raises(GraphError):
            s.bind_input("in", Stream("b"))


class TestPipelining:
    def test_latency_delays_output(self):
        src = SourceStage("src", [10])
        fn = FunctionStage("f", lambda x: x + 1, latency=5)
        sink = SinkStage("sink")
        g = DataflowGraph("t")
        for s in (src, fn, sink):
            g.add(s)
        g.connect(src, "out", fn, "in")
        g.connect(fn, "out", sink, "in")
        # Manually tick: the value should not reach the sink before the
        # function stage's latency has elapsed.
        for cycle in range(4):
            for s in (src, fn, sink):
                s.tick(cycle)
        assert sink.collected == []
        for cycle in range(4, 12):
            for s in (src, fn, sink):
                s.tick(cycle)
        assert sink.collected == [11]

    def test_in_flight_bounded_by_latency(self):
        src = SourceStage("src", range(100))
        fn = FunctionStage("f", lambda x: x, latency=3)
        sink = SinkStage("sink", ii=100)  # sink almost never fires
        g = DataflowGraph("t")
        for s in (src, fn, sink):
            g.add(s)
        g.connect(src, "out", fn, "in", depth=2)
        g.connect(fn, "out", sink, "in", depth=2)
        for cycle in range(50):
            for s in (src, fn, sink):
                s.tick(cycle)
        assert fn.in_flight <= 3

    def test_ii_limits_firing_rate(self):
        src = SourceStage("src", range(10))
        fn = FunctionStage("f", lambda x: x, ii=3)
        sink = SinkStage("sink")
        g = DataflowGraph("t")
        for s in (src, fn, sink):
            g.add(s)
        g.connect(src, "out", fn, "in", depth=16)
        g.connect(fn, "out", sink, "in", depth=16)
        for cycle in range(9):
            for s in (src, fn, sink):
                s.tick(cycle)
        assert fn.stats.fires == 3  # cycles 0, 3, 6


class TestBackpressure:
    def test_full_output_blocks_retire(self):
        fn = FunctionStage("f", lambda x: x, latency=1)
        ins = Stream("in", depth=10)
        outs = Stream("out", depth=1)
        fn.bind_input("in", ins)
        fn.bind_output("out", outs)
        for i in range(5):
            ins.push(i)
        for cycle in range(10):
            fn.tick(cycle)
        # Output stream full with one item; stage recorded output stalls.
        assert outs.occupancy == 1
        assert fn.stats.output_stalls > 0

    def test_retire_in_fifo_order(self):
        fn = FunctionStage("f", lambda x: x, latency=2)
        ins = Stream("in", depth=10)
        outs = Stream("out", depth=10)
        fn.bind_input("in", ins)
        fn.bind_output("out", outs)
        for i in range(4):
            ins.push(i)
        for cycle in range(12):
            fn.tick(cycle)
        assert list(outs) == [0, 1, 2, 3]


class TestSource:
    def test_emits_all_items(self):
        src = SourceStage("src", iter([1, 2, 3]))
        out = Stream("o", depth=10)
        src.bind_output("out", out)
        for cycle in range(10):
            src.tick(cycle)
        assert list(out) == [1, 2, 3]
        assert src.is_idle()

    def test_exhausted_before_any_fire_for_empty(self):
        src = SourceStage("src", [])
        assert src.exhausted()

    def test_fire_never_called(self):
        src = SourceStage("src", [1])
        with pytest.raises(DataflowError):
            src.fire(0, {})


class TestConstStage:
    def test_emits_count_copies(self):
        c = ConstStage("c", "x", count=4)
        out = Stream("o", depth=10)
        c.bind_output("out", out)
        for cycle in range(10):
            c.tick(cycle)
        assert list(out) == ["x"] * 4
        assert c.exhausted()


class TestSink:
    def test_collects_in_order(self):
        sink = SinkStage("k")
        ins = Stream("i", depth=10)
        sink.bind_input("in", ins)
        for i in range(5):
            ins.push(i)
        for cycle in range(10):
            sink.tick(cycle)
        assert sink.collected == [0, 1, 2, 3, 4]

    def test_reset_clears_collected(self):
        sink = SinkStage("k")
        sink.collected.append(1)
        sink.reset()
        assert sink.collected == []


class TestMisbehavingStage:
    def test_undeclared_output_port_detected(self):
        class Bad(Stage):
            input_ports = ("in",)
            output_ports = ("out",)

            def fire(self, cycle, inputs):
                return {"nope": [1]}

        bad = Bad("bad")
        ins = Stream("i", depth=2)
        outs = Stream("o", depth=2)
        bad.bind_input("in", ins)
        bad.bind_output("out", outs)
        ins.push(1)
        with pytest.raises(DataflowError, match="undeclared"):
            bad.tick(0)

    def test_ports_set_after_construction_fire_from_the_bound_plan(self):
        """``SpecStage`` sets its ports per instance after
        ``Stage.__init__``; the firing plan is fixed when they are bound,
        so the declared ports fire and an undeclared one still raises."""
        from repro.lint.spec import SpecStage

        class Adder(SpecStage):
            def fire(self, cycle, inputs):
                (a,), (b,) = inputs["a"], inputs["b"]
                return {self.target: [a + b]}

        for target, ok in (("sum", True), ("nope", False)):
            stage = Adder("add", inputs=("b", "a"), outputs=("sum",))
            stage.target = target
            a, b, out = Stream("a"), Stream("b"), Stream("s")
            stage.bind_input("a", a)
            stage.bind_input("b", b)
            stage.bind_output("sum", out)
            a.push(1)
            assert not stage.is_idle()
            b.push(2)
            if not ok:
                with pytest.raises(DataflowError,
                                   match=r"undeclared ports \['nope'\]"):
                    stage.tick(0)
                continue
            assert stage.tick(0)
            assert stage.is_idle() is False  # in flight
            for cycle in range(1, 3):
                stage.tick(cycle)
            assert list(out) == [3]
            assert stage.is_idle()


class _Pair(Stage):
    """Emits each consumed item twice: a two-item retirement."""

    input_ports = ("in",)
    output_ports = ("out",)

    def fire(self, cycle, inputs):
        return {"out": inputs["in"] * 2}


def blocked_machine(emitter: Stage, *, sink_ii: int) -> DataflowGraph:
    """src -> emitter -> sink over depth-2 streams, ticked up to (and
    including) cycle 3 by :meth:`TestBlockedReason.tick`."""
    g = DataflowGraph("blocked")
    for stage in (SourceStage("src", range(4)), emitter,
                  SinkStage("sink", ii=sink_ii)):
        g.add(stage)
    g.connect("src", "out", emitter.name, "in", depth=2)
    g.connect(emitter.name, "out", "sink", "in", depth=2)
    return g


class TestBlockedReason:
    """One answer per rule of ``_retire`` then ``_try_fire``, read after
    the cycle's ticks."""

    @staticmethod
    def tick(graph: DataflowGraph, last_cycle: int) -> None:
        order = graph.topological_order()
        for cycle in range(last_cycle + 1):
            for stage in order:
                stage.tick(cycle)

    def test_an_empty_input_starves(self):
        g = blocked_machine(_Pair("pair"), sink_ii=1)
        self.tick(g, 0)
        assert (g.stage("pair").blocked_reason(0)
                == "starved: stream 'src.out->pair.in' empty")
        assert (g.stage("sink").blocked_reason(0)
                == "starved: stream 'pair.out->sink.in' empty")

    @pytest.mark.parametrize("emitter, cycle, want", [
        (_Pair("pair"), 3, "cannot retire 2 items: stream "
                           "'pair.out->sink.in' holds 1/2"),
        (FunctionStage("pair", lambda x: x, latency=2), 6,
         "cannot retire 1 item: stream 'pair.out->sink.in' holds 2/2"),
    ])
    def test_a_full_stream_refuses_the_matured_result(self, emitter, cycle,
                                                      want):
        # The sink fires once, then waits out its II.
        g = blocked_machine(emitter, sink_ii=100)
        self.tick(g, cycle)
        assert g.stage("pair").blocked_reason(cycle) == want
        assert g.stage("sink").blocked_reason(cycle) is None

    def test_a_full_pipeline_waits_behind_an_exit_blocked_this_cycle(self):
        # At cycle 3 the pair result meets a stream holding 1/2 and
        # stays; the sink then pops, so the exit has room after the
        # cycle's ticks, but the pipeline was full and nothing fired.
        g = blocked_machine(_Pair("pair"), sink_ii=1)
        self.tick(g, 3)
        pair = g.stage("pair")
        assert pair.stats.output_stalls == 1
        assert pair.blocked_reason(3) == "pipeline full behind a blocked exit"

    def test_a_stage_waiting_out_its_ii_or_idle_is_not_blocked(self):
        g = blocked_machine(_Pair("pair"), sink_ii=1)
        src = g.stage("src")
        self.tick(g, 0)
        # The source fired at cycle 0: its II ends at cycle 1.
        assert src.blocked_reason(0) is None
        self.tick(g, 40)
        # Drained and exhausted: idle.
        assert src.is_idle() and src.blocked_reason(40) is None
