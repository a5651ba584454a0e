"""Classic validation flows: Taylor-Green and solid-body rotation."""

import numpy as np
import pytest

from repro.core import divergence, vorticity_z
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import solid_body_rotation, taylor_green


class TestTaylorGreen:
    def test_divergence_free(self):
        grid = Grid(nx=32, ny=32, nz=4)
        div = divergence(taylor_green(grid))
        # Centred differences of the sampled analytic field: small but not
        # exactly zero (discretisation of sin/cos products).
        assert np.abs(div).max() < 1e-2 * 2 * np.pi / grid.dx

    def test_vorticity_pattern(self):
        """Vorticity = -4*pi*A/L * sin sin in physical units; its extrema
        sit at the cell corners of the vortex lattice."""
        grid = Grid(nx=32, ny=32, nz=4, dx=1.0, dy=1.0)
        vort = vorticity_z(taylor_green(grid, magnitude=1.0))
        assert vort.min() < 0 < vort.max()
        # Anti-symmetric lattice: zero net circulation.
        assert abs(vort.sum()) < 1e-8 * np.abs(vort).max() * vort.size

    def test_no_vertical_flow(self):
        grid = Grid(nx=16, ny=16, nz=4)
        fields = taylor_green(grid)
        assert np.all(fields.interior("w") == 0.0)
        # With w = 0 everywhere, the W sources vanish identically.
        sources = advect_reference(fields)
        assert np.all(sources.sw == 0.0)

    def test_magnitude_scaling(self):
        grid = Grid(nx=8, ny=8, nz=4)
        a = taylor_green(grid, magnitude=1.0)
        b = taylor_green(grid, magnitude=2.0)
        np.testing.assert_allclose(b.interior("u"), 2 * a.interior("u"))


class TestSolidBodyRotation:
    def test_uniform_vorticity(self):
        grid = Grid(nx=16, ny=16, nz=4, dx=10.0, dy=10.0)
        omega = 1e-3
        vort = vorticity_z(solid_body_rotation(grid, omega=omega))
        # Interior (away from the open-boundary halos): exactly 2*omega.
        np.testing.assert_allclose(vort[2:-2, 2:-2, :], 2 * omega,
                                   rtol=1e-10)

    def test_divergence_free_interior(self):
        grid = Grid(nx=16, ny=16, nz=4)
        div = divergence(solid_body_rotation(grid))
        np.testing.assert_allclose(div[2:-2, 2:-2, :], 0.0, atol=1e-15)

    def test_velocity_grows_with_radius(self):
        grid = Grid(nx=16, ny=16, nz=4, dx=10.0, dy=10.0)
        fields = solid_body_rotation(grid, omega=1e-3)
        speed = np.sqrt(fields.interior("u") ** 2
                        + fields.interior("v") ** 2)
        assert speed[0, 0, 0] > speed[8, 8, 0]  # corner beats centre

    def test_open_halos(self):
        """Linear-in-space flow cannot be periodic; halos stay open."""
        grid = Grid(nx=8, ny=8, nz=4)
        fields = solid_body_rotation(grid)
        assert np.all(fields.u[0, :, :] == 0.0)
