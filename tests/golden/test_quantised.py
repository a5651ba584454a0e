"""Golden digests of the reduced-precision datapath.

The float64 datapath is pinned bitwise against the reference elsewhere;
the rounded formats are otherwise checked only against error bounds, so
a rounding moved to a different node of the expression tree would pass
them.  These SHA-256 digests of the rounded outputs pin every format's
bytes, on a periodic and an open-halo input.
"""

import hashlib

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.precision import (
    BFLOAT16,
    FLOAT32,
    FixedPointFormat,
    FloatFormat,
    advect_quantised,
)

from .conftest import as_json

FORMATS = (
    FLOAT32,
    BFLOAT16,
    FixedPointFormat("q8.23", 8, 23),
    FloatFormat("m10", 10, 5),
)


def periodic_input():
    grid = Grid(nx=6, ny=6, nz=6)
    return (random_wind(grid, seed=5, magnitude=3.0),
            AdvectionCoefficients.isothermal(grid))


def open_halo_input():
    grid = Grid(nx=5, ny=11, nz=7)
    rng = np.random.default_rng(11)
    shape = grid.interior_shape
    fields = FieldSet.from_interior(
        grid, *(rng.uniform(-2.0, 2.0, shape) for _ in range(3)),
        periodic=False)
    return fields, AdvectionCoefficients.stretched(
        grid, np.linspace(1.0, 3.0, 7))


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_rounded_formats_are_pinned_bytewise(golden):
    inputs = {"periodic_6x6x6_isothermal": periodic_input(),
              "open_5x11x7_stretched": open_halo_input()}
    digests: dict[str, dict] = {}
    for fmt in FORMATS:
        for label, (fields, coeffs) in inputs.items():
            out = advect_quantised(fields, fmt, coeffs)
            digests.setdefault(fmt.name, {})[label] = {
                name: digest(getattr(out, name)) for name in ("su", "sv", "sw")
            }
    golden("quantised_digests.json", as_json(digests))
