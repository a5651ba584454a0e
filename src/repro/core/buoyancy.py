"""Buoyancy-term smoothing of the wind fields (MONC's vertical filter).

MONC's buoyancy term feeds vertical accelerations back into the dynamics;
to keep the forcing stable the model smooths it with a vertical Shapiro
1-2-1 filter.  The FPGA exploration paper for MONC considers exactly this
family of small per-column kernels as follow-on offload candidates, which
is why the scenario suite carries it: it is the *cheapest* stencil in the
workload set (a three-point vertical filter, no horizontal neighbours)
and therefore probes the opposite end of the operations-per-cycle range
from advection.

The scheme, per field and per column::

    s[k]    = alpha * f[k-1] + (1 - 2*alpha) * f[k] + alpha * f[k+1]
    s[0]    = (1 - alpha) * f[0]    + alpha * f[1]        # one-sided
    s[nz-1] = (1 - alpha) * f[nz-1] + alpha * f[nz-2]     # one-sided

with filter weight ``alpha`` (0.25 is the classical 1-2-1 filter).  As
with advection and diffusion there are two implementations — a scalar
loop-nest specification and a vectorised reference — kept bit-identical,
and a kernel-side evaluation on
:class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D` windows
(:mod:`repro.kernel.buoyancy`).

FLOP accounting: 5 operations per field per interior cell (3 multiplies,
2 adds), 3 at the one-sided column top — 15/9 for all three fields, the
numbers the scenario registry's derived ops-per-cycle model uses.
"""

from __future__ import annotations

import numpy as np

from repro.core.fields import FieldSet, SourceSet
from repro.errors import ConfigurationError

__all__ = [
    "buoyancy_golden",
    "buoyancy_reference",
    "buoyancy_cell",
    "BUOYANCY_OPS_PER_FIELD",
    "BUOYANCY_OPS_PER_CELL",
    "BUOYANCY_OPS_PER_TOP_FIELD",
    "BUOYANCY_OPS_PER_TOP_CELL",
    "DEFAULT_FILTER_WEIGHT",
]

#: Operations per field per interior cell: 3 multiplies + 2 adds.
BUOYANCY_OPS_PER_FIELD: int = 5
BUOYANCY_OPS_PER_CELL: int = 3 * BUOYANCY_OPS_PER_FIELD
#: Operations per field at the one-sided column boundaries: 2 mul + 1 add.
BUOYANCY_OPS_PER_TOP_FIELD: int = 3
BUOYANCY_OPS_PER_TOP_CELL: int = 3 * BUOYANCY_OPS_PER_TOP_FIELD

#: The classical Shapiro 1-2-1 filter weight.
DEFAULT_FILTER_WEIGHT: float = 0.25


def _check_weight(alpha: float) -> None:
    if not 0.0 < alpha <= 0.5:
        raise ConfigurationError(
            f"filter weight must be in (0, 0.5], got {alpha}"
        )


def buoyancy_cell(field: np.ndarray, i: int, j: int, k: int, nz: int,
                  alpha: float) -> float:
    """Smoothed value of one field at halo coordinates ``(i, j, k)``."""
    if k == 0:
        return (1.0 - alpha) * field[i, j, 0] + alpha * field[i, j, 1]
    if k == nz - 1:
        return (1.0 - alpha) * field[i, j, nz - 1] + alpha * field[i, j, nz - 2]
    return (alpha * field[i, j, k - 1]
            + (1.0 - 2.0 * alpha) * field[i, j, k]
            + alpha * field[i, j, k + 1])


def buoyancy_golden(fields: FieldSet,
                    alpha: float = DEFAULT_FILTER_WEIGHT) -> SourceSet:
    """Scalar specification: vertical 1-2-1 smoothing of all three fields."""
    _check_weight(alpha)
    grid = fields.grid
    out = SourceSet.zeros(grid)
    for name, target in (("u", out.su), ("v", out.sv), ("w", out.sw)):
        field = getattr(fields, name)
        for i in range(1, grid.nx + 1):
            for j in range(1, grid.ny + 1):
                for k in range(grid.nz):
                    target[i - 1, j - 1, k] = buoyancy_cell(
                        field, i, j, k, grid.nz, alpha)
    return out


def buoyancy_reference(fields: FieldSet,
                       alpha: float = DEFAULT_FILTER_WEIGHT,
                       out: SourceSet | None = None) -> SourceSet:
    """Vectorised smoothing, bit-identical to :func:`buoyancy_golden`."""
    _check_weight(alpha)
    grid = fields.grid
    if out is None:
        out = SourceSet.zeros(grid)
    elif out.grid.interior_shape != grid.interior_shape:
        raise ConfigurationError("output SourceSet has a different grid")
    nz = grid.nz

    for name, target in (("u", out.su), ("v", out.sv), ("w", out.sw)):
        centre = getattr(fields, name)[1:-1, 1:-1, :]
        # Same expression shapes (and therefore rounding) as the scalar
        # specification, evaluated level-slab by level-slab.
        target[:, :, 1:nz - 1] = (
            alpha * centre[:, :, 0:nz - 2]
            + (1.0 - 2.0 * alpha) * centre[:, :, 1:nz - 1]
            + alpha * centre[:, :, 2:nz]
        )
        target[:, :, 0] = (1.0 - alpha) * centre[:, :, 0] \
            + alpha * centre[:, :, 1]
        target[:, :, nz - 1] = (1.0 - alpha) * centre[:, :, nz - 1] \
            + alpha * centre[:, :, nz - 2]
    return out
