"""Second-order diffusion of the wind fields (MONC's other big stencil).

Alongside advection, MONC's dynamical core runs diffusion/viscosity terms
each timestep — in the FPGA line of work this was the second kernel
ported [6].  The scheme here is the standard centred 7-point Laplacian
with constant eddy viscosity and zero-flux vertical boundaries:

    s = nu * ( (u[i-1] + u[i+1] - 2u) / dx^2
             + (u[j-1] + u[j+1] - 2u) / dy^2
             + (u[k-1] + u[k+1] - 2u) / dz^2 )     [one-sided at k edges]

As with advection there are two implementations — a scalar specification
and a vectorised reference — kept bit-identical, and the kernel-side
evaluation runs on :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D`
windows, demonstrating the paper's "general purpose" buffer driving a
different kernel (see :mod:`repro.kernel.diffusion`).

FLOP accounting: 15 operations per field per cell (4 per dimension plus
two accumulates and the viscosity multiply), 45 for all three fields —
the dataflow-machine peak metric applies just as it does for advection.
"""

from __future__ import annotations

import numpy as np

from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.errors import ConfigurationError

__all__ = [
    "diffuse_golden",
    "diffuse_reference",
    "diffuse_cell",
    "DIFFUSION_OPS_PER_FIELD",
    "DIFFUSION_OPS_PER_CELL",
]

#: Operations per field per cell: 3 dims x (add + 2*mul/sub) + 2
#: accumulates + 1 viscosity multiply.
DIFFUSION_OPS_PER_FIELD: int = 15
DIFFUSION_OPS_PER_CELL: int = 3 * DIFFUSION_OPS_PER_FIELD


def _check_viscosity(nu: float) -> None:
    if not nu >= 0.0:
        raise ConfigurationError(f"viscosity must be >= 0, got {nu}")


def diffuse_cell(field: np.ndarray, i: int, j: int, k: int, grid: Grid,
                 nu: float) -> float:
    """Diffusion source of one field at halo coordinates ``(i, j, k)``."""
    rdx2 = 1.0 / (grid.dx * grid.dx)
    rdy2 = 1.0 / (grid.dy * grid.dy)
    rdz2 = 1.0 / (grid.dz * grid.dz)
    c = field[i, j, k]
    lap = (field[i - 1, j, k] + field[i + 1, j, k] - 2.0 * c) * rdx2
    lap += (field[i, j - 1, k] + field[i, j + 1, k] - 2.0 * c) * rdy2
    if k == 0:
        lap += (field[i, j, k + 1] - c) * rdz2
    elif k == grid.nz - 1:
        lap += (field[i, j, k - 1] - c) * rdz2
    else:
        lap += (field[i, j, k - 1] + field[i, j, k + 1] - 2.0 * c) * rdz2
    return nu * lap


def diffuse_golden(fields: FieldSet, nu: float = 1.0) -> SourceSet:
    """Scalar specification: diffusion sources for all three fields."""
    _check_viscosity(nu)
    grid = fields.grid
    out = SourceSet.zeros(grid)
    for name, target in (("u", out.su), ("v", out.sv), ("w", out.sw)):
        field = getattr(fields, name)
        for i in range(1, grid.nx + 1):
            for j in range(1, grid.ny + 1):
                for k in range(grid.nz):
                    target[i - 1, j - 1, k] = diffuse_cell(
                        field, i, j, k, grid, nu)
    return out


def diffuse_reference(fields: FieldSet, nu: float = 1.0,
                      out: SourceSet | None = None) -> SourceSet:
    """Vectorised diffusion, bit-identical to :func:`diffuse_golden`."""
    _check_viscosity(nu)
    grid = fields.grid
    if out is None:
        out = SourceSet.zeros(grid)
    elif out.grid.interior_shape != grid.interior_shape:
        raise ConfigurationError("output SourceSet has a different grid")

    rdx2 = 1.0 / (grid.dx * grid.dx)
    rdy2 = 1.0 / (grid.dy * grid.dy)
    rdz2 = 1.0 / (grid.dz * grid.dz)
    nz = grid.nz

    for name, target in (("u", out.su), ("v", out.sv), ("w", out.sw)):
        field = getattr(fields, name)
        centre = field[1:-1, 1:-1, :]
        lap = (field[:-2, 1:-1, :] + field[2:, 1:-1, :]
               - 2.0 * centre) * rdx2
        lap = lap + (field[1:-1, :-2, :] + field[1:-1, 2:, :]
                     - 2.0 * centre) * rdy2
        vert = np.empty_like(centre)
        vert[:, :, 1:nz - 1] = (centre[:, :, 0:nz - 2]
                                + centre[:, :, 2:nz]
                                - 2.0 * centre[:, :, 1:nz - 1]) * rdz2
        vert[:, :, 0] = (centre[:, :, 1] - centre[:, :, 0]) * rdz2
        vert[:, :, nz - 1] = (centre[:, :, nz - 2]
                              - centre[:, :, nz - 1]) * rdz2
        target[...] = nu * (lap + vert)
    return out
