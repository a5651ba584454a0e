"""Schedule analyzer: the start-cycle DP is exact, not a bound."""

from repro.analyze import analyze_graph, interpret, start_cycles
from repro.dataflow.graph import DataflowGraph
from repro.lint.spec import SpecStage

from .conftest import chain_graph, fork_join_graph, unit_rate_total


class TestStartCycleDP:
    def test_dp_equals_observed_first_fires(self):
        for graph in (chain_graph(4, latency=3),
                      fork_join_graph(fast_depth=25, slow_latency=20)):
            timing = start_cycles(graph)
            run = interpret(graph, 40)
            for name, (_, start) in timing.items():
                assert run.first_fire[name] == start, name

    def test_levels_follow_topology(self):
        timing = start_cycles(fork_join_graph())
        levels = {name: level for name, (level, _) in timing.items()}
        assert levels["src"] == 0
        assert levels["fork"] == 1
        assert levels["join"] == 3  # behind the slow branch
        assert levels["sink"] == 4

    def test_join_start_is_the_slowest_branch(self):
        timing = start_cycles(fork_join_graph(slow_latency=20))
        # src(1) + fork(1) + slow(20) = 22.
        assert timing["join"][1] == 22


class TestTotals:
    def test_stall_free_total_matches_the_closed_form(self):
        sched = analyze_graph(chain_graph(3, latency=3), 50).schedule
        assert sched.stall_free
        assert sched.total_cycles == unit_rate_total(sched)
        assert sched.total_cycles == (sched.prime_latency
                                      + 49 * sched.ideal_period + 2)

    def test_backpressure_shows_as_proved_overhead(self):
        sched = analyze_graph(
            fork_join_graph(fast_depth=2, slow_latency=20), 50).schedule
        assert not sched.stall_free
        assert sched.total_cycles > unit_rate_total(sched)

    def test_ii_sets_the_ideal_period(self):
        sched = analyze_graph(chain_graph(2, ii=3), 30).schedule
        assert sched.ideal_period == 3
        assert sched.total_cycles == unit_rate_total(sched)

    def test_zero_tokens_is_the_quiescence_cycle(self):
        sched = analyze_graph(chain_graph(2), 0).schedule
        assert sched.total_cycles == unit_rate_total(sched) == 1


class TestSchema:
    def test_to_dict_lists_every_stage(self):
        graph = fork_join_graph()
        sched = analyze_graph(graph, 20).schedule
        data = sched.to_dict()
        assert set(data) == {"graph", "tokens", "prime_latency",
                             "ideal_period", "total_cycles", "stall_free",
                             "period", "stages"}
        assert set(data["stages"]) == {s.name for s in graph.stages}
        for record in data["stages"].values():
            assert set(record) == {"name", "level", "start_cycle", "ii",
                                   "latency"}

    def test_empty_source_only_graph(self):
        graph = DataflowGraph("lonely")
        graph.add(SpecStage("a", outputs=("out",)))
        graph.add(SpecStage("b", inputs=("in",)))
        graph.connect("a", "out", "b", "in")
        sched = analyze_graph(graph, 5).schedule
        assert sched.prime_latency == 1
