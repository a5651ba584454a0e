"""The statically proven period drives batched execution's probe.

On unit-rate graphs :func:`~repro.dataflow.compiled.compile_graph`
attaches the occupancy prover's steady-state period as ``period_hint``.
The batched engine then skips the runtime recurrence hunt: it arms one
probe and opens a window when the control state recurs exactly that many
cycles later.  Batched runs must stay bit-identical to forced-scalar
ticking — and a *wrong* hint may cost speed but never correctness.
"""

import pytest

from repro.analyze import analyze_graph, build_token_twin
from repro.dataflow import engine as engine_module
from repro.dataflow.compiled import compile_graph
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.lint.spec import SpecStage


def pipeline(n_items=400, *, fn_ii=1, fn_latency=4, depth=4):
    g = DataflowGraph("p")
    src = g.add(SourceStage("src", range(n_items)))
    fn = g.add(FunctionStage("fn", lambda x: 2 * x, ii=fn_ii,
                             latency=fn_latency))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", fn, "in", depth=depth)
    g.connect(fn, "out", sink, "in", depth=depth)
    return g


def without_batching(stats):
    """Stats minus the batching bookkeeping, which legitimately differs."""
    data = stats.to_dict()
    for key in ("batched_windows", "batched_cycles", "batch_fallback_reason"):
        del data[key]
    return data


def collected(graph):
    (sink,) = [s for s in graph.stages if isinstance(s, SinkStage)]
    return sink.collected


class TestEquivalence:
    @pytest.mark.parametrize("fn_ii,period", [(1, 1), (2, 2), (3, 3)])
    def test_period_hint_matches_exact_mode(self, fn_ii, period):
        assert compile_graph(pipeline(fn_ii=fn_ii)).period_hint == period
        g_exact = pipeline(fn_ii=fn_ii)
        stats_exact = DataflowEngine(g_exact, batched=False).run()
        g_batched = pipeline(fn_ii=fn_ii)
        stats_batched = DataflowEngine(g_batched).run()
        assert stats_batched.cycles == stats_exact.cycles
        assert stats_batched.fires == stats_exact.fires
        assert stats_batched.stalls == stats_exact.stalls
        assert collected(g_batched) == collected(g_exact)
        assert stats_batched.batched_windows > 0

    def test_wrong_period_is_safe_just_slower(self, monkeypatch):
        g_exact = pipeline()
        stats_exact = DataflowEngine(g_exact, batched=False).run()
        # True period is 1; any multiple still matches the recurrence,
        # a non-multiple simply never fires the probe.
        for period in (7, 997):
            def wrong_hint(graph, period=period):
                compiled = compile_graph(graph)
                compiled.period_hint = period
                return compiled

            monkeypatch.setattr(engine_module, "compile_graph", wrong_hint)
            g = pipeline()
            stats = DataflowEngine(g).run()
            assert without_batching(stats) == without_batching(stats_exact)
            assert collected(g) == collected(g_exact)

    def test_analyzer_period_feeds_the_engine(self):
        """End to end: the statically proved period is the engine's hint."""
        graph = DataflowGraph("chain")
        graph.add(SpecStage("src", outputs=("out",), latency=1))
        graph.add(SpecStage("fn", inputs=("in",), outputs=("out",),
                            ii=2, latency=3))
        graph.add(SpecStage("sink", inputs=("in",)))
        graph.connect("src", "out", "fn", "in", depth=4)
        graph.connect("fn", "out", "sink", "in", depth=4)
        tokens = 500
        report = analyze_graph(graph, tokens)
        twin = build_token_twin(graph, tokens)
        assert compile_graph(twin).period_hint \
            == report.occupancy.period.cycles
        stats_exact = DataflowEngine(
            build_token_twin(graph, tokens), batched=False).run()
        stats_batched = DataflowEngine(twin).run()
        assert stats_batched.cycles == stats_exact.cycles
        assert stats_batched.cycles == report.schedule.total_cycles
        assert stats_batched.batched_windows > 0

    def test_probe_skips_most_of_a_long_run(self):
        stats = DataflowEngine(pipeline(5000)).run()
        assert stats.batched_cycles > 4000
        assert stats.batched_windows >= 1
