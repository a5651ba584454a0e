"""The buoyancy smoothing scheme: specification, reference, kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buoyancy import (
    BUOYANCY_OPS_PER_CELL,
    BUOYANCY_OPS_PER_FIELD,
    BUOYANCY_OPS_PER_TOP_CELL,
    DEFAULT_FILTER_WEIGHT,
    buoyancy_golden,
    buoyancy_reference,
)
from repro.core.grid import Grid
from repro.core.wind import constant_wind, random_wind
from repro.errors import ConfigurationError
from repro.scenarios.kernels import BuoyancyKernel


def smooth_scalar(fields, alpha=DEFAULT_FILTER_WEIGHT):
    """Forced-scalar run of the buoyancy kernel on the stencil machine."""
    sources, _stats, _cycles = BuoyancyKernel(alpha=alpha).run(
        fields, batched=False)
    return sources


class TestSpecificationEquality:
    @pytest.mark.parametrize("shape", [(3, 3, 3), (5, 6, 4), (2, 2, 8)])
    def test_golden_equals_reference_bitwise(self, shape):
        grid = Grid(nx=shape[0], ny=shape[1], nz=shape[2])
        fields = random_wind(grid, seed=sum(shape))
        assert buoyancy_golden(fields, alpha=0.3).max_abs_difference(
            buoyancy_reference(fields, alpha=0.3)) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           alpha=st.floats(min_value=0.05, max_value=0.5))
    def test_property_bitwise(self, seed, alpha):
        grid = Grid(nx=4, ny=4, nz=5)
        fields = random_wind(grid, seed=seed)
        assert buoyancy_golden(fields, alpha).max_abs_difference(
            buoyancy_reference(fields, alpha)) == 0.0

    def test_shiftbuffer_kernel_matches_reference_bitwise(self):
        grid = Grid(nx=4, ny=5, nz=6)
        fields = random_wind(grid, seed=11, magnitude=3.0)
        expected = buoyancy_reference(fields)
        assert smooth_scalar(fields).max_abs_difference(
            expected) == 0.0


class TestPhysics:
    def test_constant_field_is_invariant(self):
        """The filter weights sum to one: constants pass through."""
        grid = Grid(nx=4, ny=4, nz=5)
        fields = constant_wind(grid, u0=2.0, v0=-1.0, w0=0.5)
        smoothed = buoyancy_reference(fields)
        np.testing.assert_allclose(smoothed.su, 2.0, rtol=1e-12)
        np.testing.assert_allclose(smoothed.sv, -1.0, rtol=1e-12)
        np.testing.assert_allclose(smoothed.sw, 0.5, rtol=1e-12)

    def test_damps_vertical_extrema(self):
        grid = Grid(nx=3, ny=3, nz=7)
        fields = constant_wind(grid, u0=0.0, v0=0.0, w0=0.0)
        fields.interior("u")[1, 1, 3] = 1.0  # isolated vertical spike
        fields.fill_halos()
        smoothed = buoyancy_reference(fields)
        assert smoothed.su[1, 1, 3] < 1.0      # peak decays
        assert smoothed.su[1, 1, 2] > 0.0      # neighbours gain
        assert smoothed.su[1, 1, 4] > 0.0

    def test_full_column_sum_is_conserved(self):
        """Every source cell's weights sum to one across the column
        (including the one-sided rows), so the column integral is
        preserved exactly up to rounding."""
        grid = Grid(nx=4, ny=4, nz=16)
        fields = random_wind(grid, seed=5, magnitude=2.0)
        smoothed = buoyancy_reference(fields)
        raw = fields.u[1:-1, 1:-1, :].sum(axis=2)
        np.testing.assert_allclose(smoothed.su.sum(axis=2), raw,
                                   rtol=1e-10, atol=1e-10)


class TestValidationAndAccounting:
    def test_rejects_bad_weight(self):
        fields = random_wind(Grid(nx=3, ny=3, nz=3), seed=0)
        for alpha in (0.0, -0.1, 0.6):
            with pytest.raises(ConfigurationError):
                buoyancy_reference(fields, alpha=alpha)
            with pytest.raises(ConfigurationError):
                buoyancy_golden(fields, alpha=alpha)
            with pytest.raises(ConfigurationError):
                smooth_scalar(fields, alpha=alpha)

    def test_shiftbuffer_needs_vertical_room(self):
        from repro.core.fields import FieldSet

        too_shallow = FieldSet.zeros(Grid(nx=3, ny=3, nz=2))
        with pytest.raises(ConfigurationError, match="nz"):
            smooth_scalar(too_shallow)

    def test_out_buffer_reuse(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=0)
        out = buoyancy_reference(fields)
        again = buoyancy_reference(fields, out=out)
        assert again is out

    def test_flop_accounting(self):
        assert BUOYANCY_OPS_PER_FIELD == 5
        assert BUOYANCY_OPS_PER_CELL == 15
        assert BUOYANCY_OPS_PER_TOP_CELL == 9
