"""Per-cell advection arithmetic on 27-point stencil windows.

These functions are the "advect U/V/W" boxes of Fig. 2: each consumes the
three field windows for one cell and produces that cell's source term.
The expression trees are kept *identical* to the scalar specification in
:mod:`repro.core.golden` (same association, same evaluation order) so the
dataflow simulation reproduces the reference bit-for-bit — the test suite
enforces this.

A window-based implementation cannot cheat: it only sees the 27 values the
shift buffer forwarded, which is precisely the paper's observation that
"typically only 8 unique values of the 27 point 3D stencil are required for
each field advection" while the general-purpose buffer forwards all 27.
"""

from __future__ import annotations

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.shiftbuffer.window import StencilWindow

__all__ = ["advect_u", "advect_v", "advect_w", "advect_u_block",
           "advect_v_block", "advect_w_block", "UNIQUE_STENCIL_POINTS"]

#: Unique stencil points actually read per field advection (paper: ~8).
UNIQUE_STENCIL_POINTS: dict[str, int] = {"u": 8, "v": 8, "w": 9}


def advect_u(u: StencilWindow, v: StencilWindow, w: StencilWindow,
             coeffs: AdvectionCoefficients, k: int, nz: int) -> float:
    """Source term for the U field at vertical level ``k``."""
    tcx, tcy = coeffs.tcx, coeffs.tcy
    su = tcx * (
        u.at(-1, 0, 0) * (u.at(0, 0, 0) + u.at(-1, 0, 0))
        - u.at(1, 0, 0) * (u.at(0, 0, 0) + u.at(1, 0, 0))
    )
    su += tcy * (
        u.at(0, -1, 0) * (v.at(0, -1, 0) + v.at(1, -1, 0))
        - u.at(0, 1, 0) * (v.at(0, 0, 0) + v.at(1, 0, 0))
    )
    if k < nz - 1:
        su += (
            coeffs.tzc1[k] * u.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(1, 0, -1))
            - coeffs.tzc2[k] * u.at(0, 0, 1) * (w.at(0, 0, 0) + w.at(1, 0, 0))
        )
    else:
        su += coeffs.tzc1[k] * u.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(1, 0, -1))
    return su


def advect_v(u: StencilWindow, v: StencilWindow, w: StencilWindow,
             coeffs: AdvectionCoefficients, k: int, nz: int) -> float:
    """Source term for the V field at vertical level ``k``."""
    tcx, tcy = coeffs.tcx, coeffs.tcy
    sv = tcy * (
        v.at(0, -1, 0) * (v.at(0, 0, 0) + v.at(0, -1, 0))
        - v.at(0, 1, 0) * (v.at(0, 0, 0) + v.at(0, 1, 0))
    )
    sv += tcx * (
        v.at(-1, 0, 0) * (u.at(-1, 0, 0) + u.at(-1, 1, 0))
        - v.at(1, 0, 0) * (u.at(0, 0, 0) + u.at(0, 1, 0))
    )
    if k < nz - 1:
        sv += (
            coeffs.tzc1[k] * v.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(0, 1, -1))
            - coeffs.tzc2[k] * v.at(0, 0, 1) * (w.at(0, 0, 0) + w.at(0, 1, 0))
        )
    else:
        sv += coeffs.tzc1[k] * v.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(0, 1, -1))
    return sv


def advect_w(u: StencilWindow, v: StencilWindow, w: StencilWindow,
             coeffs: AdvectionCoefficients, k: int, nz: int) -> float:
    """Source term for the W field at vertical level ``k``.

    Zero at the column top (no W source there); the top window's stale
    ``dk=+1`` registers are therefore never read.
    """
    if k >= nz - 1:
        return 0.0
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


# -- batched variants ----------------------------------------------------------
#
# The ``*_block`` functions below evaluate the same expression trees over
# index vectors of cell centres, reading straight from the streamed block
# arrays (window ``at(di, dj, dk)`` is by construction the block value at
# ``(cx+di, cy+dj, cz+dk)``, for top windows too).  Order of operations is
# copied term for term from the scalar forms — numpy's element-wise float64
# arithmetic performs the identical IEEE-754 operations, so the results are
# bit-for-bit equal to looping the scalar functions; the equivalence tests
# enforce this.  The k-branch is expressed with ``np.where`` over terms
# whose per-lane expression matches the scalar branch taken.


def advect_u_block(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                   coeffs: AdvectionCoefficients, cx: np.ndarray,
                   cy: np.ndarray, cz: np.ndarray, nz: int) -> np.ndarray:
    """Vector of U source terms for cell centres ``(cx, cy, cz)``."""
    tcx, tcy = coeffs.tcx, coeffs.tcy
    # Clamped +1 level: the lanes that read it (k < nz-1) never clamp;
    # top lanes gather a discarded in-bounds value instead of faulting.
    kz = np.minimum(cz + 1, nz - 1)
    su = tcx * (
        u[cx - 1, cy, cz] * (u[cx, cy, cz] + u[cx - 1, cy, cz])
        - u[cx + 1, cy, cz] * (u[cx, cy, cz] + u[cx + 1, cy, cz])
    )
    su += tcy * (
        u[cx, cy - 1, cz] * (v[cx, cy - 1, cz] + v[cx + 1, cy - 1, cz])
        - u[cx, cy + 1, cz] * (v[cx, cy, cz] + v[cx + 1, cy, cz])
    )
    below = (coeffs.tzc1[cz] * u[cx, cy, cz - 1]
             * (w[cx, cy, cz - 1] + w[cx + 1, cy, cz - 1]))
    above = (coeffs.tzc2[cz] * u[cx, cy, kz]
             * (w[cx, cy, cz] + w[cx + 1, cy, cz]))
    su += np.where(cz < nz - 1, below - above, below)
    return su


def advect_v_block(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                   coeffs: AdvectionCoefficients, cx: np.ndarray,
                   cy: np.ndarray, cz: np.ndarray, nz: int) -> np.ndarray:
    """Vector of V source terms for cell centres ``(cx, cy, cz)``."""
    tcx, tcy = coeffs.tcx, coeffs.tcy
    kz = np.minimum(cz + 1, nz - 1)
    sv = tcy * (
        v[cx, cy - 1, cz] * (v[cx, cy, cz] + v[cx, cy - 1, cz])
        - v[cx, cy + 1, cz] * (v[cx, cy, cz] + v[cx, cy + 1, cz])
    )
    sv += tcx * (
        v[cx - 1, cy, cz] * (u[cx - 1, cy, cz] + u[cx - 1, cy + 1, cz])
        - v[cx + 1, cy, cz] * (u[cx, cy, cz] + u[cx, cy + 1, cz])
    )
    below = (coeffs.tzc1[cz] * v[cx, cy, cz - 1]
             * (w[cx, cy, cz - 1] + w[cx, cy + 1, cz - 1]))
    above = (coeffs.tzc2[cz] * v[cx, cy, kz]
             * (w[cx, cy, cz] + w[cx, cy + 1, cz]))
    sv += np.where(cz < nz - 1, below - above, below)
    return sv


def advect_w_block(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                   coeffs: AdvectionCoefficients, cx: np.ndarray,
                   cy: np.ndarray, cz: np.ndarray, nz: int) -> np.ndarray:
    """Vector of W source terms for cell centres ``(cx, cy, cz)``.

    Zero at column tops, exactly like the scalar form.
    """
    tcx, tcy = coeffs.tcx, coeffs.tcy
    kz = np.minimum(cz + 1, nz - 1)
    sw = tcx * (
        w[cx - 1, cy, cz] * (u[cx - 1, cy, cz] + u[cx - 1, cy, kz])
        - w[cx + 1, cy, cz] * (u[cx, cy, cz] + u[cx, cy, kz])
    )
    sw += tcy * (
        w[cx, cy - 1, cz] * (v[cx, cy - 1, cz] + v[cx, cy - 1, kz])
        - w[cx, cy + 1, cz] * (v[cx, cy, cz] + v[cx, cy, kz])
    )
    sw += (
        coeffs.tzd1[cz] * w[cx, cy, cz - 1]
        * (w[cx, cy, cz] + w[cx, cy, cz - 1])
        - coeffs.tzd2[cz] * w[cx, cy, kz]
        * (w[cx, cy, cz] + w[cx, cy, kz])
    )
    return np.where(cz < nz - 1, sw, 0.0)
