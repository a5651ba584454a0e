"""Multi-kernel decomposition (Section IV), as the device model prices it.

``FPGADevice.invocation`` splits the domain along X between identical
replicas; its ``cycles`` is the slowest replica's count, the number the
Figs. 5-8 sweeps and the tuner price with.
"""

import pytest

from repro.core.grid import Grid, GridDecomposition
from repro.errors import ConfigurationError
from repro.hardware import ALVEO_U280
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel


@pytest.fixture
def config():
    return KernelConfig(grid=Grid(nx=48, ny=32, nz=16), chunk_width=8)


def invocation(config, num_kernels):
    return ALVEO_U280.invocation(config, config.grid,
                                 num_kernels=num_kernels)


def speedup(config, num_kernels):
    return invocation(config, 1).cycles / invocation(config,
                                                     num_kernels).cycles


class TestDecomposition:
    def test_parts_capped_by_nx(self):
        config = KernelConfig(grid=Grid(nx=3, ny=8, nz=8))
        assert invocation(config, 6).num_kernels == 3

    def test_rejects_zero_kernels(self, config):
        with pytest.raises(ConfigurationError):
            invocation(config, 0)


class TestScaling:
    def test_more_kernels_fewer_cycles(self, config):
        assert invocation(config, 6).cycles < invocation(config, 1).cycles

    def test_single_kernel_equals_cycle_model(self, config):
        assert invocation(config, 1).cycles == KernelCycleModel(
            config).cycles()

    def test_speedup_sublinear(self, config):
        """Halo re-reads and per-part pipeline fills keep the speedup
        strictly below the kernel count."""
        assert 4.0 < speedup(config, 6) < 6.0

    def test_speedup_monotone_in_kernels(self, config):
        assert speedup(config, 4) > speedup(config, 2) > 1.0

    def test_cycles_is_worst_part(self, config):
        """An uneven split is dominated by the widest part."""
        grid = Grid(nx=7, ny=8, nz=8)  # 7 into 3 -> parts of 3,2,2
        decomp = GridDecomposition(grid, 3)
        worst = max(
            KernelCycleModel(config.for_grid(decomp.subgrid(p))).cycles()
            for p in range(3)
        )
        assert invocation(config.for_grid(grid), 3).cycles == worst

    def test_runtime_scaling_with_clock(self, config):
        """Compute time is the slowest replica's cycles at the clock the
        device closes with that many replicas."""
        estimate = invocation(config, 4)
        assert estimate.clock_hz == ALVEO_U280.clock.frequency_hz(4)
        assert estimate.compute_seconds == estimate.cycles / estimate.clock_hz
