"""What a vendor tool report tells a developer about one kernel design,
read from the models the deployment is priced and gated with: the lint
rules (KC105 for the initiation interval, KC106 for short bursts, RS201
and RS202 for placement), the device's fit and clock, and the shift
buffers' port ledger."""

import pytest

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.kernel.simulate import simulate_kernel
from repro.lint.runner import lint_kernel
from repro.perf.theoretical import theoretical_gflops


@pytest.fixture
def grid():
    return Grid.from_cells(16 * 1024 * 1024)


class TestCleanDesign:
    def test_no_warnings_and_ii1(self, grid):
        config = KernelConfig(grid=grid)
        report = lint_kernel(config, ALVEO_U280)
        assert KernelCycleModel(config).effective_ii == 1
        assert report.ok
        assert report.codes == ("RS202",)  # the placement info, no warning

    def test_paper_fit_and_clock(self, grid):
        config = KernelConfig(grid=grid)
        assert ALVEO_U280.max_kernels(config) == 6
        clock_mhz = ALVEO_U280.clock.frequency_mhz(6)
        assert clock_mhz == 300.0
        assert theoretical_gflops(clock_mhz, column_height=grid.nz) == \
            pytest.approx(18.86, abs=0.01)

    def test_stratix_multi_kernel_clock_reported(self, grid):
        config = KernelConfig(grid=grid)
        assert STRATIX10_GX2800.max_kernels(config) == 5
        # The multi-kernel derated clock.
        assert STRATIX10_GX2800.clock.frequency_mhz(5) == 250.0

    def test_render_contains_key_lines(self, grid):
        text = lint_kernel(KernelConfig(grid=grid), ALVEO_U280).render_text()
        assert "fits 6 kernel(s)" in text
        assert "0 error(s), 0 warning(s)" in text


class TestWarnings:
    def test_unpartitioned_raises_ii_to_three(self, grid):
        """Five slab accesses a cycle on dual-ported memory: the port
        ledger forces II 3, and lint flags the layout."""
        small = Grid(nx=4, ny=6, nz=4)
        run = simulate_kernel(KernelConfig(grid=small, partitioned=False),
                              random_wind(small, seed=0),
                              enforce_ports=False)
        assert run.port_tracker.achievable_ii() == 3
        report = lint_kernel(KernelConfig(grid=grid, partitioned=False),
                             ALVEO_U280)
        [kc105] = [d for d in report.diagnostics if d.code == "KC105"]
        assert "not partitioned" in kc105.message

    def test_uram_ii2_warning(self, grid):
        uram = KernelConfig(grid=grid, shift_buffer_ii=2)
        report = lint_kernel(uram, ALVEO_U280)
        [kc105] = [d for d in report.diagnostics if d.code == "KC105"]
        assert "initiation interval is 2" in kc105.message
        # Throughput halves with II=2 (the paper's 'unacceptable').
        clean = KernelCycleModel(KernelConfig(grid=grid))
        assert KernelCycleModel(uram).cycles() == pytest.approx(
            2 * clean.cycles(), rel=1e-3)

    def test_narrow_chunk_warning(self, grid):
        report = lint_kernel(KernelConfig(grid=grid, chunk_width=4),
                             ALVEO_U280)
        [kc106] = [d for d in report.diagnostics if d.code == "KC106"]
        assert "burst" in kc106.message

    def test_warnings_render(self, grid):
        text = lint_kernel(KernelConfig(grid=grid, partitioned=False),
                           ALVEO_U280).render_text()
        assert "KC105 warning" in text
        assert "1 warning(s)" in text
