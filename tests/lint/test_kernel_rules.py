"""Kernel/chunking-family lint rules (KC101-KC109)."""

import pytest

from repro.core.grid import Grid
from repro.errors import LintError
from repro.kernel.config import KernelConfig
from repro.lint import LintContext, RuleRegistry, Severity, rule, run_lint
from repro.lint.runner import lint_kernel
from repro.shiftbuffer.chunking import Chunk, ChunkPlan, plan_chunks


def config(ny: int = 64, chunk_width: int = 16, **kwargs) -> KernelConfig:
    return KernelConfig(grid=Grid(nx=8, ny=ny, nz=8),
                        chunk_width=chunk_width, **kwargs)


def kc_codes(report) -> set:
    return {c for c in report.codes if c.startswith("KC")}


class TestCoverageRules:
    def test_paper_default_config_is_clean(self):
        report = lint_kernel(KernelConfig(grid=Grid.from_cells(2**24)))
        assert report.ok
        assert not kc_codes(report) - {"KC109"}

    def test_invalid_chunk_geometry_is_kc100_error(self):
        # chunk_width <= halo is rejected by the planner up front; the
        # linter reports the rejection instead of crashing mid-run.
        report = lint_kernel(config(chunk_width=1))
        assert "KC100" in report.codes
        assert not report.ok
        (diag,) = [d for d in report.diagnostics if d.code == "KC100"]
        assert "must exceed the halo" in diag.message

    def test_halo_dominated_chunk_warns_kc101(self):
        report = run_lint(
            LintContext(chunk_plan=plan_chunks(16, 3, halo=2)))
        assert "KC101" in report.codes
        assert report.ok  # warning, not error

    def test_seam_overlap_is_kc102_error(self):
        good = plan_chunks(8, 4)
        # Second chunk re-writes the first chunk's last cell.
        broken = ChunkPlan(interior=8, chunk_width=4, chunks=(
            good.chunks[0],
            Chunk(index=1, read_start=3, read_stop=10,
                  write_start=4, write_stop=9),
        ))
        report = run_lint(LintContext(chunk_plan=broken))
        assert "KC102" in report.codes
        assert not report.ok

    def test_coverage_gap_is_kc103_error(self):
        good = plan_chunks(8, 4)
        broken = ChunkPlan(interior=8, chunk_width=4,
                           chunks=(good.chunks[0],))
        report = run_lint(LintContext(chunk_plan=broken))
        assert "KC103" in report.codes
        assert not report.ok

    def test_single_chunk_domain_is_kc108_info(self):
        report = run_lint(LintContext(chunk_plan=plan_chunks(10, 64)))
        (diag,) = [d for d in report.diagnostics if d.code == "KC108"]
        assert diag.severity is Severity.INFO

    def test_ragged_tail_is_kc109_info(self):
        report = run_lint(LintContext(chunk_plan=plan_chunks(10, 4)))
        assert "KC109" in report.codes
        assert report.ok


class TestDesignRules:
    def test_chunk_wider_than_domain_warns_kc104(self):
        report = lint_kernel(config(ny=8, chunk_width=64))
        assert "KC104" in report.codes

    def test_uram_ii2_variant_warns_kc105(self):
        report = lint_kernel(config(shift_buffer_ii=2))
        (diag,) = [d for d in report.diagnostics if d.code == "KC105"]
        assert "1/2" in diag.message

    def test_memory_starved_read_warns_kc105(self):
        report = lint_kernel(config(), read_ii=2)
        (diag,) = [d for d in report.diagnostics if d.code == "KC105"]
        assert "external-memory read" in diag.message

    def test_unpartitioned_buffers_warn_kc105(self):
        report = lint_kernel(config(partitioned=False))
        assert any(d.code == "KC105" and "partition" in d.message
                   for d in report.diagnostics)

    def test_ii1_partitioned_design_has_no_kc105(self):
        assert "KC105" not in lint_kernel(config()).codes

    def test_narrow_chunks_warn_kc106(self):
        report = lint_kernel(config(ny=64, chunk_width=4))
        assert "KC106" in report.codes

    def test_single_narrow_chunk_is_not_kc106(self):
        # One chunk means no seams, so burst efficiency is the domain's.
        report = run_lint(LintContext(chunk_plan=plan_chunks(4, 4)))
        assert "KC106" not in report.codes

    def test_high_redundancy_warns_kc107(self):
        # width 2 + 2 halo cells per seam: redundancy 1.87x.
        report = run_lint(LintContext(chunk_plan=plan_chunks(64, 2)))
        assert "KC107" in report.codes

    def test_wide_chunks_have_low_redundancy(self):
        report = run_lint(LintContext(chunk_plan=plan_chunks(64, 16)))
        assert "KC107" not in report.codes


class TestSelection:
    def test_family_filter_selects_only_kernel_rules(self):
        report = lint_kernel(config(chunk_width=2), select=["kernel"])
        assert all(c.startswith("KC") for c in report.codes)

    def test_ignore_wins_over_select(self):
        report = lint_kernel(config(chunk_width=2), select=["kernel"],
                             ignore=["KC106"])
        assert "KC107" in report.codes
        assert "KC106" not in report.codes

    def test_registry_rejects_filters_that_match_nothing(self):
        registry = RuleRegistry()
        for code, family in (("KC101", "kernel"), ("RS201", "resource")):
            rule(code, name=code.lower(), family=family, description="",
                 registry=registry)(lambda context: ())

        def codes(**filters):
            return [r.code for r in registry.selected(**filters)]

        assert codes() == ["KC101", "RS201"]
        assert codes(select=["KC101"]) == ["KC101"]
        assert codes(select=iter(["KC"])) == ["KC101"]
        assert codes(select=["resource"], ignore=["RS201"]) == []
        assert codes(select=[]) == []
        for filters, bad in ((dict(select=["ZZ"]), "'ZZ'"),
                             (dict(ignore=["KC101", ""]), "''"),
                             (dict(select=["KC", "KC1O1"]), "'KC1O1'"),
                             (dict(select=["analysis"]), "'analysis'")):
            with pytest.raises(LintError, match=bad):
                registry.selected(**filters)
