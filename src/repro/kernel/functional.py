"""Functional (non-cycle-accurate) execution of the chunked kernel.

:func:`execute_chunked` runs, per chunk, the vectorised reference on the
chunk's read slab and scatters its interior back.  Fast, and exactly the
reference result: this is what the host
:class:`~repro.runtime.session.AdvectionSession` executes "on the device"
and what the chunking correctness tests compare against the unchunked
reference.  The full-fidelity path through the Fig. 3 data structures is
the cycle-accurate :func:`~repro.kernel.simulate.simulate_kernel`
(``batched=False`` ticks every cycle).
"""

from __future__ import annotations

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.reference import advect_reference
from repro.kernel.config import KernelConfig

__all__ = ["execute_chunked"]


def execute_chunked(config: KernelConfig, fields: FieldSet,
                    coeffs: AdvectionCoefficients | None = None) -> SourceSet:
    """Run the kernel chunk by chunk with vectorised per-chunk compute.

    Coefficients are Y-independent, so every chunk reuses them unchanged.
    """
    grid = config.grid
    if coeffs is None:
        coeffs = AdvectionCoefficients.uniform(grid)
    out = SourceSet.zeros(grid)
    for chunk in config.chunk_plan().chunks:
        sub_grid = grid.with_size(ny=chunk.write_width)
        # The chunk's read slab is already a valid halo-extended array for
        # the sub-grid: full X halo, one Y halo cell each side.
        sub_fields = FieldSet(
            sub_grid,
            fields.u[:, chunk.read_start:chunk.read_stop, :],
            fields.v[:, chunk.read_start:chunk.read_stop, :],
            fields.w[:, chunk.read_start:chunk.read_stop, :],
        )
        sub_out = advect_reference(sub_fields, coeffs)
        y0 = chunk.write_start - 1  # halo -> interior coordinate
        out.su[:, y0:y0 + chunk.write_width, :] = sub_out.su
        out.sv[:, y0:y0 + chunk.write_width, :] = sub_out.sv
        out.sw[:, y0:y0 + chunk.write_width, :] = sub_out.sw
    return out
