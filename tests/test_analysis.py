"""Flow diagnostics and spectra."""

import numpy as np
import pytest

from repro.core import (
    cfl_field,
    divergence,
    energy_spectrum,
    kinetic_energy,
    vorticity_z,
)
from repro.core.fields import FieldSet
from repro.core.grid import Grid
from repro.core.wind import constant_wind, shear_layer, thermal_bubble


class TestDivergence:
    def test_constant_wind_divergence_free(self):
        grid = Grid(nx=8, ny=8, nz=8)
        div = divergence(constant_wind(grid))
        np.testing.assert_allclose(div, 0.0, atol=1e-14)

    def test_known_linear_field(self):
        """u = x gives du/dx = 1 under centred differences."""
        grid = Grid(nx=8, ny=4, nz=4, dx=1.0)
        x = np.arange(grid.nx, dtype=float)[:, None, None]
        u = np.broadcast_to(x, grid.interior_shape).copy()
        fields = FieldSet.from_interior(
            grid, u, np.zeros_like(u), np.zeros_like(u), periodic=False)
        div = divergence(fields)
        # Interior away from the open boundary: exactly 1.
        np.testing.assert_allclose(div[1:-1, :, :], 1.0, atol=1e-12)

    def test_shape(self):
        grid = Grid(nx=5, ny=6, nz=7)
        assert divergence(thermal_bubble(grid)).shape == grid.interior_shape


class TestVorticity:
    def test_constant_wind_irrotational(self):
        grid = Grid(nx=8, ny=8, nz=4)
        np.testing.assert_allclose(vorticity_z(constant_wind(grid)), 0.0,
                                   atol=1e-14)

    def test_shear_layer_has_vorticity_in_the_layer(self):
        grid = Grid(nx=8, ny=32, nz=4)
        vort = vorticity_z(shear_layer(grid, magnitude=10.0))
        mid = np.abs(vort[:, 14:18, :]).max()
        quarter = np.abs(vort[:, 7:9, :]).max()
        # Vorticity concentrates in the tanh layer (and, physically, at
        # the periodic wrap); a quarter-domain away it is much weaker.
        assert mid > 5 * max(quarter, 1e-12)


class TestKineticEnergy:
    def test_constant_field_value(self):
        grid = Grid(nx=4, ny=4, nz=4)
        ke = kinetic_energy(constant_wind(grid, u0=3.0, v0=4.0, w0=0.0))
        assert ke == pytest.approx(0.5 * 25.0 * grid.num_cells)

    def test_zero_for_rest(self):
        grid = Grid(nx=4, ny=4, nz=4)
        assert kinetic_energy(FieldSet.zeros(grid)) == 0.0


class TestCFL:
    def test_scales_with_dt(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = thermal_bubble(grid)
        np.testing.assert_allclose(cfl_field(fields, 2.0),
                                   2 * cfl_field(fields, 1.0))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            cfl_field(thermal_bubble(Grid(nx=4, ny=4, nz=4)), 0.0)


class TestSpectrum:
    def test_single_mode_lands_in_its_bin(self):
        """A pure sin(2*pi*3x/L) wind puts its energy at wavenumber 3."""
        grid = Grid(nx=32, ny=32, nz=4)
        x = np.arange(grid.nx)[:, None, None] / grid.nx
        u = np.broadcast_to(np.sin(2 * np.pi * 3 * x),
                            grid.interior_shape).copy()
        fields = FieldSet.from_interior(grid, u, np.zeros_like(u),
                                        np.zeros_like(u))
        wavenumbers, spectrum = energy_spectrum(fields)
        assert wavenumbers[np.argmax(spectrum)] == 3
        assert spectrum[2] > 100 * (spectrum.sum() - spectrum[2]) / len(
            spectrum)

    def test_parseval_energy_accounting(self):
        """Total spectral energy tracks the physical horizontal KE."""
        grid = Grid(nx=16, ny=16, nz=4)
        fields = shear_layer(grid)
        _, spectrum = energy_spectrum(fields)
        physical = 0.5 * float(
            (fields.interior("u") ** 2 + fields.interior("v") ** 2).mean())
        # Spectrum misses the k=0 mean-flow mode and bin-edge leakage;
        # same order of magnitude is the meaningful check.
        assert 0.0 < spectrum.sum() < 2 * physical + 1.0

    def test_level_selection(self):
        grid = Grid(nx=16, ny=16, nz=8)
        fields = thermal_bubble(grid)
        _, low = energy_spectrum(fields, levels=slice(0, 2))
        _, high = energy_spectrum(fields, levels=slice(6, 8))
        assert not np.allclose(low, high)

    def test_spectrum_preserved_under_advection_step(self):
        """One advection step must not dump energy at the grid scale."""
        from repro.core.timestepping import AdvectionIntegrator

        grid = Grid(nx=16, ny=16, nz=8)
        integ = AdvectionIntegrator(fields=thermal_bubble(grid), dt=0.1)
        _, before = energy_spectrum(integ.fields)
        integ.run(3)
        _, after = energy_spectrum(integ.fields)
        # The highest wavenumber bin must not grow by orders of magnitude.
        tail = slice(-3, None)
        assert after[tail].sum() < 10 * before[tail].sum() + 1e-12
