"""Session edge cases and misconfiguration paths."""

import pytest

from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.config import KernelConfig
from repro.runtime.session import AdvectionSession


@pytest.fixture
def grid():
    return Grid.from_cells(16 * 1024 * 1024)


class TestMemoryOverrides:
    def test_invalid_memory_override_rejected_at_run(self, grid):
        session = AdvectionSession(STRATIX10_GX2800, KernelConfig(grid=grid),
                                   memory="hbm2")  # Stratix has no HBM
        with pytest.raises(ConfigurationError):
            session.run(grid, overlapped=True)

    def test_explicit_kernel_count_respected(self, grid):
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid),
                                   num_kernels=2)
        assert session.run(grid, overlapped=True).num_kernels == 2

    def test_zero_kernel_count_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            AdvectionSession(ALVEO_U280, KernelConfig(grid=grid),
                             num_kernels=0)


class TestChunkingEdges:
    def test_single_chunk_equals_sequential_kernel_time(self, grid):
        """x_chunks=1 still overlaps nothing inside the run but uses the
        streamed transfer regime (bulk registration)."""
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid),
                                   x_chunks=1)
        result = session.run(grid, overlapped=True)
        schedule = result.schedule
        assert schedule.overlap_seconds("pcie_h2d", "kernel") == 0.0

    def test_chunks_capped_by_domain(self):
        """A tiny domain cannot be cut into more chunks than half its
        planes."""
        grid = Grid(nx=8, ny=64, nz=64)
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid),
                                   x_chunks=1000)
        result = session.run(grid, overlapped=True)
        kernels = [c for c in result.schedule.timeline
                   if c[1] == "kernel"]
        assert len(kernels) == 4  # nx // 2

    @pytest.mark.parametrize("device", [ALVEO_U280, STRATIX10_GX2800],
                             ids=["u280", "stratix10"])
    def test_ragged_split_prices_each_chunk_as_its_own_invocation(
            self, device):
        """nx=10 over 4 chunks is two widths (3, 3, 2, 2); pricing each
        distinct subgrid once must still give every chunk its own time."""
        grid = Grid(nx=10, ny=16, nz=8)
        config = KernelConfig(grid=grid, chunk_width=8)
        session = AdvectionSession(device, config, num_kernels=2,
                                   x_chunks=4)
        memory = session.memory_for(grid)
        chunks = session.chunk_work(grid)
        assert [c.index for c in chunks] == [0, 1, 2, 3]
        widths = [3, 3, 2, 2]
        for chunk, nx in zip(chunks, widths):
            cg = grid.with_size(nx=nx)
            assert chunk.kernel_seconds == device.invocation(
                config.for_grid(cg), cg, num_kernels=2,
                memory=memory).seconds
            assert chunk.in_bytes == (config.in_bytes_per_cell
                                      * (nx + 2) * grid.ny * grid.nz)
        assert chunks[0].kernel_seconds > chunks[-1].kernel_seconds

    def test_tiny_grid_runs(self):
        grid = Grid(nx=4, ny=4, nz=4)
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid))
        result = session.run(grid, overlapped=True)
        assert result.gflops > 0


class TestResultBookkeeping:
    def test_memory_recorded_matches_selection(self, grid):
        from repro.constants import PAPER_GRID_LABELS

        big = Grid.from_cells(PAPER_GRID_LABELS["268M"])
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=big))
        result = session.run(big, overlapped=True)
        assert result.memory == "ddr"
        assert result.average_watts > AdvectionSession(
            ALVEO_U280, KernelConfig(grid=grid)).run(
                grid, overlapped=True).average_watts

    def test_overlapped_flag_recorded(self, grid):
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid))
        assert session.run(grid, overlapped=True).overlapped
        assert not session.run(grid, overlapped=False).overlapped
