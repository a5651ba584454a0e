"""Differential suite: every PW path equals the oracle byte for byte.

``advect_reference`` is the oracle.  On drawn grids, chunk widths,
boundaries and coefficient families, the independent per-cell
specification, the reduced-precision datapath at float64, the chunked
functional kernel and the cycle-accurate kernel (batched and forced
scalar) must all reproduce its bytes, signed zeros included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet
from repro.core.golden import advect_golden
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.kernel.config import KernelConfig
from repro.kernel.functional import execute_chunked
from repro.kernel.simulate import simulate_kernel
from repro.precision import FLOAT64, advect_quantised


@st.composite
def problems(draw):
    grid = Grid(nx=draw(st.integers(3, 7)), ny=draw(st.integers(3, 7)),
                nz=draw(st.integers(3, 6)))
    chunk_width = draw(st.integers(2, grid.ny + 1))
    seed = draw(st.integers(0, 2**31 - 1))
    family = draw(st.sampled_from(["uniform", "isothermal", "stretched"]))
    if family == "uniform":
        coeffs = AdvectionCoefficients.uniform(grid)
    elif family == "isothermal":
        coeffs = AdvectionCoefficients.isothermal(grid)
    else:
        dz_levels = draw(st.lists(
            st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False),
            min_size=grid.nz, max_size=grid.nz))
        coeffs = AdvectionCoefficients.stretched(grid, np.array(dz_levels))
    if draw(st.booleans()):
        fields = random_wind(grid, seed=seed, magnitude=3.0)
    else:
        rng = np.random.default_rng(seed)
        fields = FieldSet.from_interior(
            grid, *(rng.uniform(-3.0, 3.0, grid.interior_shape)
                    for _ in range(3)),
            periodic=False)
    return KernelConfig(grid=grid, chunk_width=chunk_width), fields, coeffs


def as_bytes(sources) -> tuple[bytes, bytes, bytes]:
    return tuple(np.ascontiguousarray(getattr(sources, name)).tobytes()
                 for name in ("su", "sv", "sw"))


@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_every_path_equals_the_oracle_bytewise(problem):
    config, fields, coeffs = problem
    oracle = as_bytes(advect_reference(fields, coeffs))
    paths = {
        "golden": advect_golden(fields, coeffs),
        "quantised float64": advect_quantised(fields, FLOAT64, coeffs),
        "chunked": execute_chunked(config, fields, coeffs),
        "simulated batched": simulate_kernel(config, fields, coeffs).sources,
        "simulated scalar": simulate_kernel(
            config, fields, coeffs, batched=False).sources,
    }
    for name, sources in paths.items():
        assert as_bytes(sources) == oracle, name
