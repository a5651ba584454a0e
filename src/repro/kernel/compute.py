"""Per-cell advection arithmetic on 27-point stencil windows.

These functions are the "advect U/V/W" boxes of Fig. 2: each consumes the
three field windows for one cell and produces that cell's source term.
The expression trees are kept *identical* to the scalar specification in
:mod:`repro.core.golden` (same association, same evaluation order) so the
dataflow simulation reproduces the reference bit-for-bit — the test suite
enforces this.  Each form serves both evaluation shapes: on three
:class:`~repro.shiftbuffer.window.StencilWindow` objects (one window, as
the register model emits it) it returns a float, on three
:class:`~repro.shiftbuffer.window.WindowRun` box views (all full windows,
or all column tops, as the engine's write stage evaluates them) one
float64 array of the box's shape.  A run's ``at`` is a read-only view of the block and its
``center`` broadcasts over the box, so ``coeffs.tzc1[k]`` picks one
coefficient per level without a copy of the run's centres.

A window-based implementation cannot cheat: it only sees the 27 values the
shift buffer forwarded.  The paper notes that "typically only 8 unique
values of the 27 point 3D stencil are required for each field advection";
these forms read 7 offsets of their own field and 4 of each other field,
15 values over 9 distinct offsets, and never a top window's ``dk=+1``.
"""

from __future__ import annotations

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.shiftbuffer.window import StencilWindow, WindowRun

__all__ = ["advect_u", "advect_v", "advect_w"]


def advect_u(u: StencilWindow | WindowRun, v: StencilWindow | WindowRun,
             w: StencilWindow | WindowRun,
             coeffs: AdvectionCoefficients) -> float | np.ndarray:
    """Source term for the U field at the window's level."""
    k = u.center[2]
    tcx, tcy = coeffs.tcx, coeffs.tcy
    su = tcx * (
        u.at(-1, 0, 0) * (u.at(0, 0, 0) + u.at(-1, 0, 0))
        - u.at(1, 0, 0) * (u.at(0, 0, 0) + u.at(1, 0, 0))
    )
    su += tcy * (
        u.at(0, -1, 0) * (v.at(0, -1, 0) + v.at(1, -1, 0))
        - u.at(0, 1, 0) * (v.at(0, 0, 0) + v.at(1, 0, 0))
    )
    if not u.top:
        su += (
            coeffs.tzc1[k] * u.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(1, 0, -1))
            - coeffs.tzc2[k] * u.at(0, 0, 1) * (w.at(0, 0, 0) + w.at(1, 0, 0))
        )
    else:
        su += coeffs.tzc1[k] * u.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(1, 0, -1))
    return su


def advect_v(u: StencilWindow | WindowRun, v: StencilWindow | WindowRun,
             w: StencilWindow | WindowRun,
             coeffs: AdvectionCoefficients) -> float | np.ndarray:
    """Source term for the V field at the window's level."""
    k = v.center[2]
    tcx, tcy = coeffs.tcx, coeffs.tcy
    sv = tcy * (
        v.at(0, -1, 0) * (v.at(0, 0, 0) + v.at(0, -1, 0))
        - v.at(0, 1, 0) * (v.at(0, 0, 0) + v.at(0, 1, 0))
    )
    sv += tcx * (
        v.at(-1, 0, 0) * (u.at(-1, 0, 0) + u.at(-1, 1, 0))
        - v.at(1, 0, 0) * (u.at(0, 0, 0) + u.at(0, 1, 0))
    )
    if not v.top:
        sv += (
            coeffs.tzc1[k] * v.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(0, 1, -1))
            - coeffs.tzc2[k] * v.at(0, 0, 1) * (w.at(0, 0, 0) + w.at(0, 1, 0))
        )
    else:
        sv += coeffs.tzc1[k] * v.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(0, 1, -1))
    return sv


def advect_w(u: StencilWindow | WindowRun, v: StencilWindow | WindowRun,
             w: StencilWindow | WindowRun,
             coeffs: AdvectionCoefficients) -> float | np.ndarray:
    """Source term for the W field at the window's level.

    Zero at the column top (no W source there); the top window's stale
    ``dk=+1`` registers are therefore never read.  A top run gets the
    scalar ``0.0``, which broadcasts.
    """
    if w.top:
        return 0.0
    k = w.center[2]
    tcx, tcy = coeffs.tcx, coeffs.tcy
    sw = tcx * (
        w.at(-1, 0, 0) * (u.at(-1, 0, 0) + u.at(-1, 0, 1))
        - w.at(1, 0, 0) * (u.at(0, 0, 0) + u.at(0, 0, 1))
    )
    sw += tcy * (
        w.at(0, -1, 0) * (v.at(0, -1, 0) + v.at(0, -1, 1))
        - w.at(0, 1, 0) * (v.at(0, 0, 0) + v.at(0, 0, 1))
    )
    sw += (
        coeffs.tzd1[k] * w.at(0, 0, -1) * (w.at(0, 0, 0) + w.at(0, 0, -1))
        - coeffs.tzd2[k] * w.at(0, 0, 1) * (w.at(0, 0, 0) + w.at(0, 0, 1))
    )
    return sw
