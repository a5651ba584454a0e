"""The diffusion kernel's window arithmetic on the paper's shift buffer.

Demonstrates the paper's central design point — the shift buffer is
*general purpose* — by driving a second, different stencil kernel
(7-point diffusion) from :class:`~repro.shiftbuffer.buffer3d.
ShiftBuffer3D` windows, with the same one-value-per-cycle streaming
protocol the advection kernel uses.

Vertical boundary cells are computed from their neighbouring interior
window (the window centred at ``k=1`` contains everything the one-sided
``k=0`` update needs, and likewise at the top), the same
burst-absorbed-by-FIFOs trick the advection kernel's column tops use.
:class:`~repro.scenarios.kernels.DiffusionKernel` runs these functions
on the generic stencil machine (:mod:`repro.kernel.generic`); the result
is bit-identical to :func:`repro.core.diffusion.diffuse_reference`.
"""

from __future__ import annotations

from repro.core.diffusion import diffuse_reference  # noqa: F401 (re-export)
from repro.core.grid import Grid
from repro.shiftbuffer.window import StencilWindow

__all__ = ["diffusion_from_window", "diffusion_boundary_from_window"]


def diffusion_from_window(window: StencilWindow, grid: Grid,
                          nu: float) -> float:
    """Diffusion source of the window's centre cell (interior k)."""
    rdx2 = 1.0 / (grid.dx * grid.dx)
    rdy2 = 1.0 / (grid.dy * grid.dy)
    rdz2 = 1.0 / (grid.dz * grid.dz)
    c = window.at(0, 0, 0)
    lap = (window.at(-1, 0, 0) + window.at(1, 0, 0) - 2.0 * c) * rdx2
    lap += (window.at(0, -1, 0) + window.at(0, 1, 0) - 2.0 * c) * rdy2
    lap += (window.at(0, 0, -1) + window.at(0, 0, 1) - 2.0 * c) * rdz2
    return nu * lap


def diffusion_boundary_from_window(window: StencilWindow, grid: Grid,
                                   nu: float, *, top: bool) -> float:
    """Boundary-cell source computed from the adjacent interior window.

    For ``top=False`` the window must be centred at ``k = 1`` and the
    ``k = 0`` cell is evaluated through the ``dk = -1`` plane; for
    ``top=True`` the window is centred at ``k = nz - 2`` and the top cell
    uses the ``dk = +1`` plane.
    """
    rdx2 = 1.0 / (grid.dx * grid.dx)
    rdy2 = 1.0 / (grid.dy * grid.dy)
    rdz2 = 1.0 / (grid.dz * grid.dz)
    dk = 1 if top else -1
    c = window.at(0, 0, dk)
    lap = (window.at(-1, 0, dk) + window.at(1, 0, dk) - 2.0 * c) * rdx2
    lap += (window.at(0, -1, dk) + window.at(0, 1, dk) - 2.0 * c) * rdy2
    lap += (window.at(0, 0, 0) - c) * rdz2  # one-sided vertical term
    return nu * lap
