"""Accounting-family lint rules (AC301-AC304): the 63/55-op model."""

from repro import constants
from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.lint import LintContext, run_lint
from repro.lint.spec import SpecStage

PAPER_CONFIG = KernelConfig(grid=Grid.from_cells(2**24))


class TestPaperConstants:
    def test_current_model_matches_the_paper(self):
        report = run_lint(LintContext(), select=["AC301"])
        assert report.ok
        assert not report.diagnostics

    def test_drifted_op_count_is_ac301_error(self, monkeypatch):
        monkeypatch.setattr(constants, "OPS_PER_FIELD", 22)
        report = run_lint(LintContext(), select=["AC301"])
        assert not report.ok
        # cell_flops() and cell_flops(top=True) both drift.
        assert len(report.errors) == 2
        assert all(d.code == "AC301" for d in report.errors)
        assert any("cell_flops()" in d.message for d in report.errors)

    def test_drifted_constant_is_ac301_error(self, monkeypatch):
        monkeypatch.setattr(constants, "OPS_PER_CELL", 64)
        report = run_lint(LintContext(), select=["AC301"])
        assert any("constants.OPS_PER_CELL" in d.message
                   for d in report.errors)


class TestComposition:
    def test_column_and_grid_compose(self):
        report = run_lint(LintContext(config=PAPER_CONFIG), select=["AC302"])
        assert report.ok and not report.diagnostics


class TestStageDeclarations:
    def test_structural_graph_declares_63_55(self):
        graph = build_structural_graph(PAPER_CONFIG)
        report = run_lint(LintContext(graph=graph), select=["AC303"])
        assert report.ok and not report.diagnostics

    def test_wrong_declarations_are_ac303_errors(self):
        graph = DataflowGraph("wrong")
        graph.add(SpecStage("a", flops_per_cell=20, flops_per_cell_top=20))
        graph.add(SpecStage("b", flops_per_cell=20, flops_per_cell_top=20))
        graph.add(SpecStage("c", flops_per_cell=20, flops_per_cell_top=20))
        report = run_lint(LintContext(graph=graph), select=["AC303"])
        assert not report.ok
        messages = " ".join(d.message for d in report.errors)
        assert "60" in messages  # per-cell total
        assert "requires 63" in messages

    def test_graph_without_declarations_is_skipped(self):
        graph = DataflowGraph("plain")
        graph.add(SpecStage("a"))
        report = run_lint(LintContext(graph=graph), select=["AC303"])
        assert not report.diagnostics


class TestConventionDivergence:
    def test_monc_column_height_is_quiet(self):
        # nz = 64: strict/paper = 0.98, well above the floor.
        report = run_lint(LintContext(config=PAPER_CONFIG), select=["AC304"])
        assert not report.diagnostics

    def test_short_columns_are_ac304_info(self):
        shallow = KernelConfig(grid=Grid(nx=64, ny=64, nz=3))
        report = run_lint(LintContext(config=shallow), select=["AC304"])
        (diag,) = report.diagnostics
        assert diag.code == "AC304"
        assert report.ok  # info only
