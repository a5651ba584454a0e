"""PW advection through a reduced-precision datapath.

Every input, coefficient, and *intermediate operation result* is rounded
to the chosen :class:`~repro.precision.formats.NumberFormat` — a value-
accurate model of a datapath built from narrow operators, which is what
the paper's §V proposes building on FPGAs and Versal AI engines.

The datapath evaluates the oracle's own expression tree,
:func:`repro.core.reference.pw_tree`, with rounding operators in place of
the float64 ones.  With :data:`~repro.precision.formats.FLOAT64` the
rounding is the identity, so the result equals the oracle by
construction; the rounded formats are pinned by golden digests.
"""

from __future__ import annotations

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.reference import pw_tree
from repro.precision.formats import NumberFormat

__all__ = ["advect_quantised"]


def advect_quantised(fields: FieldSet, fmt: NumberFormat,
                     coeffs: AdvectionCoefficients | None = None) -> SourceSet:
    """Compute PW source terms with every operation rounded to ``fmt``."""
    grid = fields.grid
    if coeffs is None:
        coeffs = AdvectionCoefficients.uniform(grid)
    if coeffs.nz != grid.nz:
        raise ValueError(
            f"coefficients are for nz={coeffs.nz}, grid has nz={grid.nz}"
        )
    q = fmt.quantise

    # Quantise the stored operands once, like narrow on-chip buffers would.
    operands = [q(array) for array in (
        fields.u, fields.v, fields.w, coeffs.tcx, coeffs.tcy,
        coeffs.tzc1, coeffs.tzc2, coeffs.tzd1, coeffs.tzd2)]
    out = pw_tree(*operands, SourceSet.zeros(grid),
                  add=lambda a, b: q(a + b),
                  sub=lambda a, b: q(a - b),
                  mul=lambda a, b: q(a * b))

    # Narrow storage on the way out, too.
    out.su[...] = q(out.su)
    out.sv[...] = q(out.sv)
    out.sw[...] = q(out.sw)
    # Keep the structural zeros exact (no source at the bottom level).
    out.su[:, :, 0] = 0.0
    out.sv[:, :, 0] = 0.0
    out.sw[:, :, 0] = 0.0
    out.sw[:, :, grid.nz - 1] = 0.0
    return out
