"""Analytic wind-field generators for tests, examples and benchmarks.

Each generator returns a :class:`~repro.core.fields.FieldSet` with periodic
halos already filled.  The fields are chosen to exercise different aspects
of the kernel: constant flow (trivially checkable sources), shear layers
(strong horizontal gradients), a thermal bubble (the classic LES test case
that motivates MONC), a gravity current (density-driven outflow), and
reproducible random fields for fuzzing.
"""

from __future__ import annotations

import numpy as np

from repro.core.fields import FieldSet
from repro.core.grid import Grid
from repro.errors import ConfigurationError

__all__ = [
    "constant_wind",
    "shear_layer",
    "thermal_bubble",
    "gravity_current",
    "random_wind",
    "taylor_green",
    "solid_body_rotation",
]


def _mesh(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised interior coordinates in [0, 1), shaped for broadcasting."""
    x = (np.arange(grid.nx) / grid.nx)[:, None, None]
    y = (np.arange(grid.ny) / grid.ny)[None, :, None]
    z = (np.arange(grid.nz) / grid.nz)[None, None, :]
    return x, y, z


def constant_wind(grid: Grid, u0: float = 5.0, v0: float = -3.0,
                  w0: float = 0.5) -> FieldSet:
    """Spatially constant wind everywhere.

    Under periodic boundaries a constant field has zero advective tendency
    in the horizontal, which makes this the sharpest available correctness
    probe for sign errors in the stencil.
    """
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        np.full(shape, u0),
        np.full(shape, v0),
        np.full(shape, w0),
    )


def shear_layer(grid: Grid, magnitude: float = 10.0,
                thickness: float = 0.1) -> FieldSet:
    """A horizontal shear layer: u flips sign across mid-y, plus weak w.

    The tanh profile concentrates gradients in a band of relative width
    ``thickness``, stressing the y-line terms of the scheme.
    """
    x, y, z = _mesh(grid)
    u = magnitude * np.tanh((y - 0.5) / max(thickness, 1e-6))
    v = 0.05 * magnitude * np.sin(2 * np.pi * x)
    w = 0.05 * magnitude * np.sin(2 * np.pi * y) * np.sin(np.pi * z)
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        np.broadcast_to(u, shape).copy(),
        np.broadcast_to(v, shape).copy(),
        np.broadcast_to(w, shape).copy(),
    )


def thermal_bubble(grid: Grid, updraft: float = 2.0,
                   radius: float = 0.2) -> FieldSet:
    """A warm-bubble-style updraft with compensating inflow.

    A Gaussian updraft of relative radius ``radius`` sits at the domain
    centre with a horizontally convergent flow beneath it, giving all three
    fields non-trivial structure — the standard convection-initiation test
    that MONC users run.
    """
    x, y, z = _mesh(grid)
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
    column = np.exp(-r2 / (2 * radius**2))
    vertical = np.sin(np.pi * z)
    w = updraft * column * vertical
    # Convergent horizontal flow toward the bubble axis, strongest low down.
    u = -updraft * (x - 0.5) * column * np.cos(np.pi * z)
    v = -updraft * (y - 0.5) * column * np.cos(np.pi * z)
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        np.broadcast_to(u, shape).copy(),
        np.broadcast_to(v, shape).copy(),
        np.broadcast_to(w, shape).copy(),
    )


def gravity_current(grid: Grid, head_speed: float = 8.0,
                    depth: float = 0.25) -> FieldSet:
    """A density-current-like outflow: low-level jet with return flow aloft.

    The along-x jet occupies the lowest ``depth`` fraction of the column and
    reverses above it (mass continuity), with a weak frontal updraft.
    """
    x, y, z = _mesh(grid)
    low = np.exp(-z / max(depth, 1e-6))
    u = head_speed * (low - depth)  # jet below, return flow above
    v = 0.1 * head_speed * np.sin(2 * np.pi * y) * low
    w = 0.2 * head_speed * np.sin(2 * np.pi * x) * np.sin(np.pi * z)
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        np.broadcast_to(u, shape).copy(),
        np.broadcast_to(v, shape).copy(),
        np.broadcast_to(w, shape).copy(),
    )


def taylor_green(grid: Grid, magnitude: float = 1.0) -> FieldSet:
    """The Taylor-Green vortex sheet: the classic periodic test flow.

    ``u =  A sin(2*pi*x) cos(2*pi*y)``, ``v = -A cos(2*pi*x) sin(2*pi*y)``,
    ``w = 0`` — exactly divergence-free in the horizontal (to the
    discretisation), with analytically known vorticity.  The standard
    validation case for advection and diagnostics.
    """
    x, y, z = _mesh(grid)
    two_pi = 2.0 * np.pi
    u = magnitude * np.sin(two_pi * x) * np.cos(two_pi * y)
    v = -magnitude * np.cos(two_pi * x) * np.sin(two_pi * y)
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        np.broadcast_to(u, shape).copy(),
        np.broadcast_to(v, shape).copy(),
        np.zeros(shape),
    )


def solid_body_rotation(grid: Grid, omega: float = 1e-3) -> FieldSet:
    """Solid-body rotation about the domain centre (angular rate omega).

    ``u = -omega * (y - y_c)``, ``v = omega * (x - x_c)`` in physical
    coordinates — zero divergence, uniform vorticity ``2*omega``, a sharp
    probe for the rotational terms of any advection scheme.
    """
    x, y, z = _mesh(grid)
    x_phys = (x - 0.5) * grid.nx * grid.dx
    y_phys = (y - 0.5) * grid.ny * grid.dy
    u = -omega * y_phys
    v = omega * x_phys
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        np.broadcast_to(u, shape).copy(),
        np.broadcast_to(v, shape).copy(),
        np.zeros(shape),
        periodic=False,  # linear in space: not periodic; open halos
    )


def random_wind(grid: Grid, seed: int = 0, magnitude: float = 1.0) -> FieldSet:
    """Reproducible uniform-random wind in ``[-magnitude, magnitude]``.

    Used for fuzz/property tests: random fields have no structure for a bug
    to hide behind.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    shape = grid.interior_shape
    return FieldSet.from_interior(
        grid,
        rng.uniform(-magnitude, magnitude, shape),
        rng.uniform(-magnitude, magnitude, shape),
        rng.uniform(-magnitude, magnitude, shape),
    )
