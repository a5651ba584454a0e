"""Window-based advection arithmetic vs the scalar specification."""

import numpy as np
import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.golden import advect_cell
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.kernel.compute import (
    UNIQUE_STENCIL_POINTS,
    advect_u,
    advect_u_block,
    advect_v,
    advect_v_block,
    advect_w,
    advect_w_block,
)
from repro.shiftbuffer.window import StencilWindow


def cell_sources(u, v, w, coeffs, k, nz):
    """All three source terms for one cell, as the three advect stages
    compute them from one stencil bundle."""
    return tuple(fn(u, v, w, coeffs, k, nz)
                 for fn in (advect_u, advect_v, advect_w))


def window_at(arr, i, j, k, *, top=False):
    """Build a StencilWindow presenting arr's true neighbourhood of (i,j,k)."""
    raw = np.zeros((3, 3, 3))
    for s in range(3):
        for dy in range(3):
            for dz in range(3):
                kk = k - dz + (0 if top else 1)
                if 0 <= kk < arr.shape[2]:
                    raw[s, dy, dz] = arr[i + 1 - s, j + 1 - dy, kk]
                else:
                    raw[s, dy, dz] = np.nan  # stale register
    return StencilWindow(raw=raw, center=(i, j, k), top=top)


@pytest.fixture
def setup():
    grid = Grid(nx=5, ny=5, nz=6)
    fields = random_wind(grid, seed=99, magnitude=2.0)
    coeffs = AdvectionCoefficients.isothermal(grid)
    return grid, fields, coeffs


class TestAgainstGolden:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_interior_levels_bitwise(self, setup, k):
        grid, fields, coeffs = setup
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                wu = window_at(fields.u, i, j, k)
                wv = window_at(fields.v, i, j, k)
                ww = window_at(fields.w, i, j, k)
                su, sv, sw = cell_sources(wu, wv, ww, coeffs, k,
                                                 grid.nz)
                gu, gv, gw = advect_cell(fields.u, fields.v, fields.w,
                                         coeffs, i, j, k, grid.nz)
                assert su == gu and sv == gv and sw == gw

    def test_column_top_bitwise(self, setup):
        grid, fields, coeffs = setup
        k = grid.nz - 1
        for i in (1, 3):
            for j in (2, 3):
                wu = window_at(fields.u, i, j, k, top=True)
                wv = window_at(fields.v, i, j, k, top=True)
                ww = window_at(fields.w, i, j, k, top=True)
                su, sv, sw = cell_sources(wu, wv, ww, coeffs, k,
                                                 grid.nz)
                gu, gv, gw = advect_cell(fields.u, fields.v, fields.w,
                                         coeffs, i, j, k, grid.nz)
                assert su == gu and sv == gv
                assert sw == 0.0 == gw

    def test_top_never_touches_stale_plane(self, setup):
        """Top windows carry NaN in the dk=+1 registers; any illegal read
        would poison the result."""
        grid, fields, coeffs = setup
        k = grid.nz - 1
        wu = window_at(fields.u, 2, 2, k, top=True)
        wv = window_at(fields.v, 2, 2, k, top=True)
        ww = window_at(fields.w, 2, 2, k, top=True)
        su, sv, sw = cell_sources(wu, wv, ww, coeffs, k, grid.nz)
        assert np.isfinite(su) and np.isfinite(sv) and np.isfinite(sw)


class TestFieldFunctions:
    def test_w_zero_at_top(self, setup):
        grid, fields, coeffs = setup
        k = grid.nz - 1
        wu = window_at(fields.u, 2, 2, k, top=True)
        wv = window_at(fields.v, 2, 2, k, top=True)
        ww = window_at(fields.w, 2, 2, k, top=True)
        assert advect_w(wu, wv, ww, coeffs, k, grid.nz) == 0.0

    def test_individual_functions_match_tuple(self, setup):
        """Each window function equals its block form at that centre,
        the pair the scalar and batched advect stages evaluate."""
        grid, fields, coeffs = setup
        wu = window_at(fields.u, 2, 2, 2)
        wv = window_at(fields.v, 2, 2, 2)
        ww = window_at(fields.w, 2, 2, 2)
        centre = (np.array([2]), np.array([2]), np.array([2]))
        for window_fn, block_fn in ((advect_u, advect_u_block),
                                    (advect_v, advect_v_block),
                                    (advect_w, advect_w_block)):
            block = block_fn(fields.u, fields.v, fields.w, coeffs, *centre,
                             grid.nz)
            assert window_fn(wu, wv, ww, coeffs, 2, grid.nz) == block[0]

    def test_unique_stencil_points_documented(self):
        # The paper: "typically only 8 unique values of the 27 point 3D
        # stencil are required for each field advection".
        assert UNIQUE_STENCIL_POINTS["u"] == 8
        assert UNIQUE_STENCIL_POINTS["v"] == 8
