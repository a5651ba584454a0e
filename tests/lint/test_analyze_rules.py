"""SA-family lint rules: proved facts from the static verifier."""

import time

import pytest

import repro.lint.rules_analyze as rules_analyze
from repro.analyze import analyze_graph
from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.hardware.devices import ALVEO_U280
from repro.kernel.config import KernelConfig
from repro.lint import (LintContext, Severity, build_structural_graph,
                        lint_graph, lint_kernel, load_builtin_rules,
                        run_lint)
from repro.lint.spec import SpecStage


def fork_join_graph(*, fast_depth: int, slow_latency: int = 20,
                    depth: int = 2) -> DataflowGraph:
    graph = DataflowGraph("forkjoin")
    graph.add(SpecStage("src", outputs=("out",), latency=1))
    graph.add(SpecStage("fork", inputs=("in",), outputs=("a", "b"),
                        latency=1))
    graph.add(SpecStage("slow", inputs=("in",), outputs=("out",),
                        latency=slow_latency))
    graph.add(SpecStage("join", inputs=("a", "b"), outputs=("out",),
                        latency=1))
    graph.add(SpecStage("sink", inputs=("in",)))
    graph.connect("src", "out", "fork", "in", depth=depth)
    graph.connect("fork", "a", "join", "a", depth=fast_depth)
    graph.connect("fork", "b", "slow", "in", depth=depth)
    graph.connect("slow", "out", "join", "b", depth=depth)
    graph.connect("join", "out", "sink", "in", depth=depth)
    return graph


class TestRegistration:
    def test_sa_rules_are_registered(self):
        registry = load_builtin_rules()
        codes = {rule.code for rule in registry}
        assert {"SA401", "SA402", "SA403"} <= codes
        for rule in registry:
            if rule.code.startswith("SA"):
                assert rule.family == "analysis"


class TestSA401:
    def test_under_depth_reconvergence_is_a_proved_error(self):
        report = lint_graph(fork_join_graph(fast_depth=2))
        assert "SA401" in report.codes
        (diag,) = [d for d in report.diagnostics if d.code == "SA401"]
        assert diag.severity is Severity.ERROR
        assert "proved throughput collapse" in diag.message
        assert "backpressure witness" in diag.message
        assert "fork.a->join.a" in diag.message
        assert str(diag.location) == "stream:fork.a->join.a"
        assert "fork.a->join.a: 21" in diag.hint
        assert not report.ok

    def test_well_depthed_graph_is_silent(self):
        report = lint_graph(fork_join_graph(fast_depth=21))
        assert "SA401" not in report.codes
        assert "SA402" not in report.codes

    def test_sa401_complements_heuristic_df004(self):
        """DF004 flags the *risk* structurally; SA401 proves the loss."""
        report = lint_graph(fork_join_graph(fast_depth=2))
        assert "DF004" in report.codes  # heuristic, WARNING
        assert "SA401" in report.codes  # proved, ERROR


class TestSA402:
    def test_one_warning_per_under_stream(self):
        report = lint_graph(fork_join_graph(fast_depth=2))
        diags = [d for d in report.diagnostics if d.code == "SA402"]
        assert [str(d.location) for d in diags] == [
            "stream:fork.a->join.a"]
        assert "below the proved minimal stall-free depth 21" \
            in diags[0].message
        assert diags[0].severity is Severity.WARNING

    def test_cascaded_fullness_is_not_blamed(self):
        """src.out->fork.in fills behind the blocked fork, but only the
        root-cause stream is under-depth."""
        report = lint_graph(fork_join_graph(fast_depth=2))
        locations = {str(d.location) for d in report.diagnostics
                     if d.code == "SA402"}
        assert "stream:src.out->fork.in" not in locations


class TestSA403:
    def test_overprovisioned_fifo_is_an_info(self):
        graph = DataflowGraph("deep")
        graph.add(SpecStage("src", outputs=("out",)))
        graph.add(SpecStage("sink", inputs=("in",)))
        graph.connect("src", "out", "sink", "in", depth=64)
        report = lint_graph(graph)
        (diag,) = [d for d in report.diagnostics if d.code == "SA403"]
        assert diag.severity is Severity.INFO
        assert report.ok  # info never fails the run
        assert "exceeds the proved worst-case occupancy 1" in diag.message

    def test_modest_headroom_is_tolerated(self):
        graph = DataflowGraph("ok")
        graph.add(SpecStage("src", outputs=("out",)))
        graph.add(SpecStage("sink", inputs=("in",)))
        graph.connect("src", "out", "sink", "in", depth=4)
        report = lint_graph(graph)
        assert "SA403" not in report.codes


class TestStructurallyBrokenGraphs:
    def test_sa_rules_stay_silent_on_unanalyzable_graphs(self):
        graph = DataflowGraph("broken")
        graph.add(SpecStage("src", outputs=("out",)))
        graph.add(SpecStage("dst", inputs=("in",)))
        report = lint_graph(graph)
        assert "DF001" in report.codes
        assert not any(d.code.startswith("SA") for d in report.diagnostics)

    def test_cyclic_graph_reports_df003_not_sa(self):
        graph = DataflowGraph("loop")
        graph.add(SpecStage("a", inputs=("in",), outputs=("out",)))
        graph.add(SpecStage("b", inputs=("in",), outputs=("out",)))
        graph.connect("a", "out", "b", "in")
        graph.connect("b", "out", "a", "in")
        report = lint_graph(graph)
        assert "DF003" in report.codes
        assert not any(d.code.startswith("SA") for d in report.diagnostics)


class TestSuppliedAnalysis:
    """A precomputed ``LintContext.analysis`` changes no diagnostic."""

    @staticmethod
    def forbid_analysis(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze_graph ran despite a supplied "
                                 "report")
        monkeypatch.setattr(rules_analyze, "analyze_graph", refuse)

    @pytest.mark.parametrize("stream_depth", [2, 4, 8, 64])
    @pytest.mark.parametrize("chunk_width,num_kernels", [(8, 1), (32, 7)])
    def test_kernel_configs_across_depths(self, stream_depth, chunk_width,
                                          num_kernels, monkeypatch):
        config = KernelConfig(grid=Grid(16, 32, 8), chunk_width=chunk_width,
                              stream_depth=stream_depth)
        derived = lint_kernel(config, ALVEO_U280, num_kernels).to_dict()
        proof = analyze_graph(build_structural_graph(config))
        self.forbid_analysis(monkeypatch)
        supplied = lint_kernel(config, ALVEO_U280, num_kernels,
                               analysis=proof).to_dict()
        assert supplied == derived

    def test_under_depth_reconvergence(self, monkeypatch):
        """The CI analyze job's graph: SA401 and SA402 fire either way."""
        graph = fork_join_graph(fast_depth=2)
        derived = lint_graph(graph).to_dict()
        proof = analyze_graph(fork_join_graph(fast_depth=2))
        self.forbid_analysis(monkeypatch)
        supplied = run_lint(LintContext(graph=graph,
                                        analysis=proof)).to_dict()
        assert supplied == derived
        codes = {d["code"] for d in supplied["diagnostics"]}
        assert {"SA401", "SA402"} <= codes

    def test_structural_errors_still_silence_the_sa_rules(self):
        graph = DataflowGraph("broken")
        graph.add(SpecStage("src", outputs=("out",)))
        graph.add(SpecStage("dst", inputs=("in",)))
        proof = analyze_graph(fork_join_graph(fast_depth=2))
        report = run_lint(LintContext(graph=graph, analysis=proof))
        assert "DF001" in report.codes
        assert not any(d.code.startswith("SA") for d in report.diagnostics)


def diamond_lattice(stages: int = 30) -> DataflowGraph:
    """A chain of ~``stages`` diamonds: exponentially many simple paths."""
    graph = DataflowGraph("lattice")
    graph.add(SpecStage("src", outputs=("out",)))
    previous = ("src", "out")
    for index in range(stages):
        fork = f"f{index}"
        join = f"j{index}"
        graph.add(SpecStage(fork, inputs=("in",), outputs=("a", "b")))
        graph.add(SpecStage(join, inputs=("a", "b"), outputs=("out",)))
        graph.connect(previous[0], previous[1], fork, "in", depth=4)
        graph.connect(fork, "a", join, "a", depth=4)
        graph.connect(fork, "b", join, "b", depth=4)
        previous = (join, "out")
    graph.add(SpecStage("sink", inputs=("in",)))
    graph.connect(previous[0], previous[1], "sink", "in", depth=4)
    return graph


class TestLatticeScalability:
    def test_thirty_diamond_lattice_lints_in_under_a_second(self):
        """2^30 simple src->sink paths: only memoised aggregates survive."""
        graph = diamond_lattice(30)
        start = time.perf_counter()
        report = lint_graph(graph)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"lint took {elapsed:.2f}s"
        assert not any(d.severity is Severity.ERROR
                       for d in report.diagnostics)
