"""The diffusion kernel on the paper's general-purpose shift buffer.

Every run here ticks forced-scalar (``batched=False``): each value
streams through the real :class:`ShiftBuffer3D` one cycle at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffusion import diffuse_reference
from repro.core.grid import Grid
from repro.core.wind import random_wind, thermal_bubble
from repro.errors import ConfigurationError
from repro.kernel.generic import run_stencil_kernel
from repro.scenarios.kernels import DiffusionKernel
from repro.shiftbuffer.ports import MemoryPortTracker


def diffuse_scalar(fields, nu=1.0):
    sources, _stats, _cycles = DiffusionKernel(nu=nu).run(
        fields, batched=False)
    return sources


class TestCorrectness:
    @pytest.mark.parametrize("shape", [(3, 3, 3), (5, 6, 4), (4, 4, 8)])
    def test_bitwise_equal_to_reference(self, shape):
        grid = Grid(nx=shape[0], ny=shape[1], nz=shape[2],
                    dx=25.0, dy=35.0, dz=15.0)
        fields = random_wind(grid, seed=sum(shape), magnitude=3.0)
        assert diffuse_scalar(fields, nu=5.0).max_abs_difference(
            diffuse_reference(fields, nu=5.0)) == 0.0

    def test_structured_field(self):
        grid = Grid(nx=6, ny=6, nz=6)
        fields = thermal_bubble(grid)
        assert diffuse_scalar(fields).max_abs_difference(
            diffuse_reference(fields)) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_random_fields(self, seed):
        grid = Grid(nx=4, ny=5, nz=4)
        fields = random_wind(grid, seed=seed)
        assert diffuse_scalar(fields, nu=2.0).max_abs_difference(
            diffuse_reference(fields, nu=2.0)) == 0.0


class TestMachineProperties:
    def test_dual_port_budget_respected(self):
        """The shift buffer's port guarantee holds for this kernel too."""
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=0)
        tracker = MemoryPortTracker(enforce=True)
        for name in ("u", "v", "w"):
            run_stencil_kernel(
                getattr(fields, name), *DiffusionKernel().window_fns(grid),
                np.zeros(grid.interior_shape), tracker=tracker,
                batched=False)
        assert tracker.worst_case == 2
        assert tracker.achievable_ii() == 1

    def test_boundary_cells_all_written(self):
        """Every vertical boundary cell receives a value (the adjacent-
        window trick covers k=0 and k=nz-1)."""
        grid = Grid(nx=4, ny=4, nz=5)
        fields = random_wind(grid, seed=4, magnitude=2.0)
        result = diffuse_scalar(fields, nu=3.0)
        reference = diffuse_reference(fields, nu=3.0)
        np.testing.assert_array_equal(result.su[:, :, 0],
                                      reference.su[:, :, 0])
        np.testing.assert_array_equal(result.su[:, :, -1],
                                      reference.su[:, :, -1])
        # And boundary sources are generically non-zero for random fields.
        assert np.abs(result.su[:, :, 0]).max() > 0.0

    def test_validation(self):
        fields = random_wind(Grid(nx=4, ny=4, nz=2), seed=0)
        with pytest.raises(ConfigurationError, match="nz"):
            diffuse_scalar(fields)
        with pytest.raises(ConfigurationError):
            DiffusionKernel(nu=-1.0)
