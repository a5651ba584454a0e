"""Graph-family lint rules (DF001-DF003, DF005, DF006) and the
collect-all refactor."""

import pytest

from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import SinkStage, SourceStage
from repro.errors import GraphError, LintError
from repro.lint import lint_graph
from repro.lint.spec import SpecStage


def two_stage_graph(*, connect: bool = True) -> DataflowGraph:
    graph = DataflowGraph("pair")
    graph.add(SpecStage("src", outputs=("out",)))
    graph.add(SpecStage("dst", inputs=("in",)))
    if connect:
        graph.connect("src", "out", "dst", "in")
    return graph


class TestStructuralDiagnostics:
    def test_clean_graph_has_no_findings(self):
        assert two_stage_graph().structural_diagnostics() == []

    def test_all_unconnected_ports_collected_at_once(self):
        """Unlike the old first-failure raise, every violation is reported."""
        graph = two_stage_graph(connect=False)
        diags = graph.structural_diagnostics()
        assert [d.code for d in diags] == ["DF001", "DF001"]
        locations = {str(d.location) for d in diags}
        assert locations == {"stage:src.out", "stage:dst.in"}

    def test_validate_raises_with_every_message(self):
        graph = two_stage_graph(connect=False)
        with pytest.raises(GraphError) as err:
            graph.validate()
        assert "unconnected" in str(err.value)
        assert "src" in str(err.value) and "dst" in str(err.value)

    def test_empty_graph_is_df002(self):
        diags = DataflowGraph("empty").structural_diagnostics()
        assert [d.code for d in diags] == ["DF002"]

    def test_cycle_is_df003(self):
        graph = DataflowGraph("loop")
        graph.add(SpecStage("a", inputs=("in",), outputs=("out",)))
        graph.add(SpecStage("b", inputs=("in",), outputs=("out",)))
        graph.connect("a", "out", "b", "in")
        graph.connect("b", "out", "a", "in")
        codes = [d.code for d in graph.structural_diagnostics()]
        assert codes == ["DF003"]
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()


class TestGraphRules:
    def test_clean_graph_lints_ok(self):
        report = lint_graph(two_stage_graph())
        assert report.ok
        assert "DF001" not in report.codes

    def test_unconnected_ports_are_errors(self):
        report = lint_graph(two_stage_graph(connect=False))
        assert not report.ok
        assert len(report.errors) == 2
        assert all(d.code == "DF001" for d in report.errors)

    def test_isolated_stage_warns_df005(self):
        graph = two_stage_graph()
        graph.add(SpecStage("orphan", inputs=("in",), outputs=("out",)))
        report = lint_graph(graph)
        assert "DF005" in report.codes

    def test_depth_one_stream_is_df006_info(self):
        graph = DataflowGraph("shallow")
        graph.add(SpecStage("src", outputs=("out",)))
        graph.add(SpecStage("dst", inputs=("in",)))
        graph.connect("src", "out", "dst", "in", depth=1)
        report = lint_graph(graph)
        assert "DF006" in report.codes
        assert report.ok  # info only — still passes


class TestEnginePreflight:
    def test_lint_preflight_raises_on_broken_graph(self):
        engine = DataflowEngine(two_stage_graph(connect=False), lint=True)
        with pytest.raises(LintError, match="DF001"):
            engine.run()

    def test_lint_off_still_raises_graph_error(self):
        engine = DataflowEngine(two_stage_graph(connect=False))
        with pytest.raises(GraphError):
            engine.run()

    def test_clean_graph_runs_with_lint_on(self):
        graph = DataflowGraph("ok")
        graph.add(SourceStage("src", items=iter(range(4))))
        sink = graph.add(SinkStage("sink"))
        graph.connect("src", "out", "sink", "in", depth=4)
        stats = DataflowEngine(graph, lint=True).run()
        assert sink.collected == [0, 1, 2, 3]
        assert stats.fires["src"] == 4
