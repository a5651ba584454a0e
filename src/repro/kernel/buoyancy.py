"""The buoyancy-smoothing kernel's window arithmetic.

The third kernel of the scenario suite, assembled from the same parts as
diffusion: :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D` windows
streamed one value per cycle, interior cells evaluated from their own
window, and the one-sided vertical boundary cells resolved from the
adjacent interior window (the burst-absorbed-by-FIFOs trick).
:class:`~repro.scenarios.kernels.BuoyancyKernel` runs these functions on
the generic stencil machine (:mod:`repro.kernel.generic`); the result is
bit-identical to :func:`repro.core.buoyancy.buoyancy_reference`.

The filter only has vertical neighbours, so it is the cheapest stencil
in the suite — 15 operations per cell against advection's 63 — which is
exactly why it is worth carrying: the derived ops-per-cycle model must
hold at both ends of the intensity range.
"""

from __future__ import annotations

from repro.core.buoyancy import (  # noqa: F401 (re-export)
    DEFAULT_FILTER_WEIGHT,
    buoyancy_reference,
)
from repro.shiftbuffer.window import StencilWindow

__all__ = ["buoyancy_from_window", "buoyancy_boundary_from_window"]


def buoyancy_from_window(window: StencilWindow, alpha: float) -> float:
    """Smoothed value of the window's centre cell (interior k)."""
    return (alpha * window.at(0, 0, -1)
            + (1.0 - 2.0 * alpha) * window.at(0, 0, 0)
            + alpha * window.at(0, 0, 1))


def buoyancy_boundary_from_window(window: StencilWindow, alpha: float, *,
                                  top: bool) -> float:
    """Boundary-cell value computed from the adjacent interior window.

    For ``top=False`` the window must be centred at ``k = 1`` and the
    ``k = 0`` cell is evaluated through the ``dk = -1`` plane; for
    ``top=True`` the window is centred at ``k = nz - 2`` and the top
    cell uses the ``dk = +1`` plane.
    """
    dk = 1 if top else -1
    return (1.0 - alpha) * window.at(0, 0, dk) + alpha * window.at(0, 0, 0)
