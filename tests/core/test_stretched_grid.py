"""Vertically stretched grids (a MONC feature the kernel is agnostic to)."""

import numpy as np
import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.grid import Grid
from repro.core.golden import advect_golden
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.errors import ConfigurationError


@pytest.fixture
def grid():
    return Grid(nx=4, ny=5, nz=6, dz=50.0)


@pytest.fixture
def stretched(grid):
    # Fine levels near the surface, coarsening upward (typical LES setup).
    dz = np.array([10.0, 15.0, 25.0, 40.0, 60.0, 90.0])
    return AdvectionCoefficients.stretched(grid, dz)


class TestStretchedCoefficients:
    def test_coefficients_follow_spacing(self, stretched):
        # Thinner cells -> larger vertical coefficients.
        inner = stretched.tzc1[1:]
        assert np.all(np.diff(inner) < 0)

    def test_uniform_spacing_reduces_to_uniform_factory(self, grid):
        via_stretched = AdvectionCoefficients.stretched(
            grid, np.full(grid.nz, grid.dz))
        uniform = AdvectionCoefficients.uniform(grid)
        np.testing.assert_allclose(via_stretched.tzc1, uniform.tzc1)
        np.testing.assert_allclose(via_stretched.tzc2, uniform.tzc2)
        np.testing.assert_allclose(via_stretched.tzd1, uniform.tzd1)
        np.testing.assert_allclose(via_stretched.tzd2, uniform.tzd2)

    def test_boundary_zeros_survive(self, stretched):
        assert stretched.tzc1[0] == 0.0
        assert stretched.tzd1[0] == 0.0 and stretched.tzd1[-1] == 0.0

    def test_density_weighting_composes(self, grid):
        dz = np.full(grid.nz, grid.dz)
        rho = np.exp(-np.arange(grid.nz + 1) * 0.1)
        both = AdvectionCoefficients.stretched(grid, dz, rho_w=rho,
                                               rho_n=np.ones(grid.nz + 1))
        assert both.tzc1[2] != both.tzc2[2]  # density ratio visible

    def test_validation(self, grid):
        with pytest.raises(ConfigurationError):
            AdvectionCoefficients.stretched(grid, np.ones(grid.nz - 1))
        bad = np.full(grid.nz, 10.0)
        bad[3] = -1.0
        with pytest.raises(ConfigurationError):
            AdvectionCoefficients.stretched(grid, bad)

    def test_from_density_rejects_nonpositive_rdz(self, grid):
        ones = np.ones(grid.nz + 1)
        with pytest.raises(ConfigurationError):
            AdvectionCoefficients.from_density(grid, rho_w=ones, rho_n=ones,
                                               rdz=-1.0)


class TestStretchedNumerics:
    def test_golden_equals_reference(self, grid, stretched):
        fields = random_wind(grid, seed=7)
        assert advect_golden(fields, stretched).max_abs_difference(
            advect_reference(fields, stretched)) == 0.0

    def test_kernel_paths_agree_on_stretched_grid(self, grid, stretched):
        from repro.kernel.config import KernelConfig
        from repro.kernel.simulate import simulate_kernel

        fields = random_wind(grid, seed=8)
        config = KernelConfig(grid=grid, chunk_width=3)
        reference = advect_reference(fields, stretched)
        for batched in (False, True):
            assert simulate_kernel(
                config, fields, stretched,
                batched=batched).sources.max_abs_difference(
                reference) == 0.0
