"""The diffusion scheme: specification, reference, and physics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffusion import (
    DIFFUSION_OPS_PER_CELL,
    DIFFUSION_OPS_PER_FIELD,
    diffuse_golden,
    diffuse_reference,
)
from repro.core.fields import FieldSet
from repro.core.grid import Grid
from repro.core.wind import constant_wind, random_wind, thermal_bubble
from repro.errors import ConfigurationError


class TestSpecificationEquality:
    @pytest.mark.parametrize("shape", [(3, 3, 3), (5, 6, 4), (2, 2, 8)])
    def test_golden_equals_reference_bitwise(self, shape):
        grid = Grid(nx=shape[0], ny=shape[1], nz=shape[2],
                    dx=30.0, dy=45.0, dz=20.0)
        fields = random_wind(grid, seed=sum(shape))
        assert diffuse_golden(fields, nu=7.5).max_abs_difference(
            diffuse_reference(fields, nu=7.5)) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           nu=st.floats(min_value=0.0, max_value=100.0))
    def test_property_bitwise(self, seed, nu):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=seed)
        assert diffuse_golden(fields, nu).max_abs_difference(
            diffuse_reference(fields, nu)) == 0.0


class TestPhysics:
    def test_constant_field_no_diffusion(self):
        grid = Grid(nx=5, ny=5, nz=5)
        sources = diffuse_reference(constant_wind(grid), nu=10.0)
        for arr in sources.as_tuple():
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_zero_viscosity_zero_sources(self):
        grid = Grid(nx=4, ny=4, nz=4)
        sources = diffuse_reference(thermal_bubble(grid), nu=0.0)
        for arr in sources.as_tuple():
            assert np.all(arr == 0.0)

    def test_linear_in_viscosity(self):
        grid = Grid(nx=4, ny=5, nz=4)
        fields = random_wind(grid, seed=1)
        one = diffuse_reference(fields, nu=1.0)
        four = diffuse_reference(fields, nu=4.0)
        np.testing.assert_allclose(four.su, 4.0 * one.su, rtol=1e-12)

    def test_smooths_extrema(self):
        """The source opposes local extrema: negative at a maximum."""
        grid = Grid(nx=5, ny=5, nz=5)
        fields = FieldSet.zeros(grid)
        fields.interior("u")[2, 2, 2] = 1.0  # isolated peak
        fields.fill_halos()
        sources = diffuse_reference(fields, nu=1.0)
        assert sources.su[2, 2, 2] < 0.0       # peak decays
        assert sources.su[1, 2, 2] > 0.0       # neighbours gain

    def test_dissipates_kinetic_energy(self):
        """Explicit diffusion stepping reduces total KE."""
        from repro.core import kinetic_energy
        from repro.core.timestepping import AdvectionIntegrator

        grid = Grid(nx=8, ny=8, nz=8)
        integ = AdvectionIntegrator(
            fields=thermal_bubble(grid), dt=0.5,
            advect=lambda f: diffuse_reference(f, nu=50.0))
        before = kinetic_energy(integ.fields)
        integ.run(5)
        assert kinetic_energy(integ.fields) < before

    def test_conserves_momentum_periodic_interior(self):
        """Zero-flux vertical + periodic horizontal: the domain sum of
        each component's source vanishes."""
        grid = Grid(nx=6, ny=6, nz=6)
        fields = random_wind(grid, seed=3)
        sources = diffuse_reference(fields, nu=2.0)
        for arr in sources.as_tuple():
            assert abs(arr.sum()) < 1e-9


class TestValidationAndAccounting:
    def test_rejects_negative_viscosity(self):
        fields = random_wind(Grid(nx=3, ny=3, nz=3), seed=0)
        with pytest.raises(ConfigurationError):
            diffuse_reference(fields, nu=-1.0)
        with pytest.raises(ConfigurationError):
            diffuse_golden(fields, nu=-1.0)

    def test_out_buffer_reuse(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=0)
        out = diffuse_reference(fields)
        again = diffuse_reference(fields, out=out)
        assert again is out

    def test_flop_accounting(self):
        assert DIFFUSION_OPS_PER_FIELD == 15
        assert DIFFUSION_OPS_PER_CELL == 45
