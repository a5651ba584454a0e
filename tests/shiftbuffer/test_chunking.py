"""Tests for the Y/X chunk planner (Fig. 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChunkingError
from repro.shiftbuffer.chunking import HALO, Chunk, ChunkPlan, plan_chunks


class TestPlanning:
    def test_single_chunk_covers_all(self):
        plan = plan_chunks(10, 16)
        assert plan.num_chunks == 1
        chunk = plan.chunks[0]
        assert chunk.write_width == 10
        assert chunk.read_width == 12

    def test_even_split(self):
        plan = plan_chunks(12, 4)
        assert plan.num_chunks == 3
        assert [c.write_width for c in plan.chunks] == [4, 4, 4]

    def test_remainder_chunk_is_last(self):
        plan = plan_chunks(10, 4)
        assert [c.write_width for c in plan.chunks] == [4, 4, 2]

    def test_neighbouring_reads_overlap_by_two(self):
        """The paper's Fig. 4: one halo cell from each side of the seam."""
        plan = plan_chunks(12, 4)
        for left, right in zip(plan.chunks, plan.chunks[1:]):
            assert left.read_stop - right.read_start == 2 * HALO

    def test_writes_tile_exactly(self):
        plan = plan_chunks(13, 5)
        cursor = HALO
        for chunk in plan.chunks:
            assert chunk.write_start == cursor
            cursor = chunk.write_stop
        assert cursor == 13 + HALO

    def test_rejects_bad_inputs(self):
        with pytest.raises(ChunkingError):
            plan_chunks(0, 4)
        with pytest.raises(ChunkingError):
            plan_chunks(4, 0)


class TestOverheadAccounting:
    def test_no_overlap_single_chunk(self):
        plan = plan_chunks(20, 64)
        assert plan.overlap_cells == 0
        assert plan.redundancy == 1.0

    def test_overlap_grows_with_chunk_count(self):
        fine = plan_chunks(64, 4)
        coarse = plan_chunks(64, 16)
        assert fine.overlap_cells > coarse.overlap_cells

    def test_overlap_formula(self):
        plan = plan_chunks(64, 8)
        # 8 chunks -> 7 seams, 2 extra cells per seam.
        assert plan.overlap_cells == 7 * 2

    def test_total_read_cells(self):
        plan = plan_chunks(6, 3)
        assert plan.total_read_cells == sum(c.read_width for c in plan.chunks)


class TestValidation:
    def test_chunk_rejects_too_narrow_read(self):
        with pytest.raises(ChunkingError):
            Chunk(index=0, read_start=0, read_stop=2, write_start=1,
                  write_stop=1)

    def test_chunk_rejects_write_outside_read(self):
        with pytest.raises(ChunkingError):
            Chunk(index=0, read_start=2, read_stop=8, write_start=1,
                  write_stop=5)

    def test_chunk_width_not_above_halo_rejected_up_front(self):
        # The tuner probes degenerate corners; the planner must reject
        # them with an actionable message, not emit an all-halo plan.
        with pytest.raises(ChunkingError, match="must exceed the halo"):
            plan_chunks(6, 1)
        with pytest.raises(ChunkingError, match="chunk_width \\(2\\)"):
            plan_chunks(16, 2, halo=2)

    def test_coverage_gap_detected(self):
        good = plan_chunks(8, 4)
        broken = ChunkPlan(
            interior=8, chunk_width=4,
            chunks=(good.chunks[0],),  # second chunk missing
        )
        with pytest.raises(ChunkingError):
            broken.validate_coverage()


class TestCoverageDiagnostics:
    """Edge cases of the collect-all coverage checker."""

    def test_clean_plan_has_no_errors(self):
        diags = plan_chunks(64, 16).coverage_diagnostics()
        assert not [d for d in diags if d.severity.value == "error"]

    def test_chunk_width_below_seam_overlap_warns_not_raises(self):
        # width 3 > halo (legal) but < 2*halo = 4: halo cells dominate
        # every read — a warning, never a ChunkingError.
        plan = plan_chunks(16, 3, halo=2)
        plan.validate_coverage()
        codes = [d.code for d in plan.coverage_diagnostics()]
        assert "KC101" in codes

    def test_single_chunk_domain_is_informational(self):
        plan = plan_chunks(10, 64)
        (diag,) = [d for d in plan.coverage_diagnostics()
                   if d.code == "KC108"]
        assert diag.severity.value == "info"
        plan.validate_coverage()

    def test_indivisible_interior_notes_ragged_tail(self):
        plan = plan_chunks(10, 4)  # 4 + 4 + 2
        (diag,) = [d for d in plan.coverage_diagnostics()
                   if d.code == "KC109"]
        assert "tail chunk 2" in diag.message
        plan.validate_coverage()

    def test_divisible_interior_has_no_tail_note(self):
        codes = [d.code for d in plan_chunks(12, 4).coverage_diagnostics()]
        assert "KC109" not in codes

    def test_empty_plan_is_an_error(self):
        broken = ChunkPlan(interior=8, chunk_width=4, chunks=())
        codes = [d.code for d in broken.coverage_diagnostics()]
        assert codes == ["KC103"]
        with pytest.raises(ChunkingError):
            broken.validate_coverage()

    def test_all_violations_collected_in_one_pass(self):
        good = plan_chunks(12, 4)
        # Keep only the middle chunk: a leading gap AND short coverage.
        broken = ChunkPlan(interior=12, chunk_width=4,
                           chunks=(good.chunks[1],))
        codes = [d.code for d in broken.coverage_diagnostics()]
        assert "KC102" in codes and "KC103" in codes
        with pytest.raises(ChunkingError) as err:
            broken.validate_coverage()
        assert "gap" in str(err.value) and "cover" in str(err.value)


class TestWiderHalo:
    """plan_chunks(halo=r) plans the seams of a radius-r stencil."""

    def test_reads_overlap_by_two_halos(self):
        plan = plan_chunks(16, 4, halo=2)
        for left, right in zip(plan.chunks, plan.chunks[1:]):
            assert left.read_stop - right.read_start == 4
        plan.validate_coverage()

    def test_halo_recorded_on_plan(self):
        assert plan_chunks(16, 4, halo=3).halo == 3
        assert plan_chunks(16, 4).halo == HALO

    def test_redundancy_accounts_for_halo(self):
        narrow = plan_chunks(16, 4, halo=2)
        assert narrow.overlap_cells == 3 * 4  # 3 seams, 2*halo each
        assert narrow.redundancy > 1.0

    def test_rejects_nonpositive_halo(self):
        with pytest.raises(ChunkingError):
            plan_chunks(16, 4, halo=0)


@settings(max_examples=50, deadline=None)
@given(interior=st.integers(1, 400), chunk_width=st.integers(2, 96))
def test_property_plans_always_valid(interior, chunk_width):
    """Any legal (interior, chunk_width) yields a covering, overlapping plan."""
    plan = plan_chunks(interior, chunk_width)
    plan.validate_coverage()
    assert sum(c.write_width for c in plan.chunks) == interior
    for chunk in plan.chunks:
        assert chunk.read_start == chunk.write_start - HALO
        assert chunk.read_stop == chunk.write_stop + HALO
    assert plan.redundancy >= 1.0
