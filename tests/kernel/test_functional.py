"""Functional kernel execution vs the reference (chunking correctness).

The shift-buffer execution checks drive the real Fig. 3 data structures
one value per cycle: :func:`simulate_kernel` with ``batched=False``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import random_wind, thermal_bubble
from repro.kernel.config import KernelConfig
from repro.kernel.functional import execute_chunked
from repro.kernel.simulate import simulate_kernel


def execute_scalar(config, fields, coeffs=None, **kwargs):
    """A forced-scalar cycle-accurate run: every feed ticks one cycle."""
    return simulate_kernel(config, fields, coeffs, batched=False, **kwargs)


class TestChunkedExecution:
    # Width 1 is rejected up front (chunk_width must exceed the halo);
    # 2 is the narrowest legal chunk.
    @pytest.mark.parametrize("chunk_width", [2, 3, 5, 7, 64])
    def test_equals_reference_any_chunk_width(self, chunk_width):
        """Fig. 4's claim: chunking changes resources, never results."""
        grid = Grid(nx=5, ny=11, nz=6)
        fields = random_wind(grid, seed=8)
        config = KernelConfig(grid=grid, chunk_width=chunk_width)
        reference = advect_reference(fields)
        assert execute_chunked(config, fields).max_abs_difference(
            reference) == 0.0

    def test_isothermal_coefficients(self):
        grid = Grid(nx=4, ny=9, nz=5)
        fields = thermal_bubble(grid)
        coeffs = AdvectionCoefficients.isothermal(grid)
        config = KernelConfig(grid=grid, chunk_width=4)
        assert execute_chunked(config, fields, coeffs).max_abs_difference(
            advect_reference(fields, coeffs)) == 0.0

    def test_chunk_wider_than_domain(self):
        grid = Grid(nx=4, ny=3, nz=4)
        fields = random_wind(grid, seed=1)
        config = KernelConfig(grid=grid, chunk_width=100)
        assert execute_chunked(config, fields).max_abs_difference(
            advect_reference(fields)) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(ny=st.integers(1, 14), chunk_width=st.integers(2, 8),
           seed=st.integers(0, 10_000))
    def test_property_chunked_equals_unchunked(self, ny, chunk_width, seed):
        grid = Grid(nx=4, ny=ny, nz=4)
        fields = random_wind(grid, seed=seed)
        config = KernelConfig(grid=grid, chunk_width=chunk_width)
        assert execute_chunked(config, fields).max_abs_difference(
            advect_reference(fields)) == 0.0


class TestShiftBufferExecution:
    def test_equals_reference_bitwise(self):
        grid = Grid(nx=5, ny=8, nz=5)
        fields = random_wind(grid, seed=21, magnitude=3.0)
        coeffs = AdvectionCoefficients.isothermal(grid)
        config = KernelConfig(grid=grid, chunk_width=3)
        result = execute_scalar(config, fields, coeffs)
        assert result.sources.max_abs_difference(
            advect_reference(fields, coeffs)) == 0.0

    def test_single_chunk(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=3)
        config = KernelConfig(grid=grid, chunk_width=64)
        assert execute_scalar(config, fields).sources.max_abs_difference(
            advect_reference(fields)) == 0.0

    def test_port_budget_respected_throughout(self):
        grid = Grid(nx=4, ny=7, nz=4)
        fields = random_wind(grid, seed=4)
        config = KernelConfig(grid=grid, chunk_width=3)
        # enforce_ports (the default) raises on any violation.
        result = execute_scalar(config, fields)
        assert result.port_tracker.worst_case == 2

    def test_unpartitioned_layout_reports_conflicts(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=4)
        config = KernelConfig(grid=grid, chunk_width=4, partitioned=False)
        result = execute_scalar(config, fields, enforce_ports=False)
        # Numerics still correct; the hardware would just need II >= 2.
        assert result.sources.max_abs_difference(
            advect_reference(fields)) == 0.0
        assert result.port_tracker.achievable_ii() > 1
