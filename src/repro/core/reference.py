"""Vectorised NumPy implementation of the PW advection scheme: the oracle.

:func:`advect_reference` is the library's oracle: the functional FPGA
kernel simulation, the cycle-level dataflow simulation, the CPU baseline
and the reduced-precision datapath are all validated against it, and it
in turn is validated bit-for-bit against its independent per-cell
check, the scalar :mod:`repro.core.golden` specification.

The expression tree lives in :func:`pw_tree`: a single pass of
whole-array slicing (no Python-level loops over cells) that does the
vertical boundary levels with dedicated slices rather than masks.  Its
arithmetic is a parameter.  The oracle evaluates it with the float64
operators; :func:`repro.precision.advect_quantised` evaluates the same
tree with rounding operators, so the reduced-precision datapath cannot
drift from the oracle's order of operations.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet

__all__ = ["advect_reference", "pw_tree"]

BinaryOp = Callable[[Any, Any], Any]


def pw_tree(u, v, w, tcx, tcy, tzc1, tzc2, tzd1, tzd2, out: SourceSet, *,
            add: BinaryOp = operator.add, sub: BinaryOp = operator.sub,
            mul: BinaryOp = operator.mul) -> SourceSet:
    """Evaluate the PW source terms into ``out`` with the given arithmetic.

    ``u``, ``v`` and ``w`` are the halo-extended wind fields, ``tcx`` and
    ``tcy`` the horizontal coefficients and ``tzc1`` .. ``tzd2`` the
    per-level vertical ones.  Every sum, difference and product goes
    through ``add``, ``sub`` and ``mul`` in the specification's order.
    Levels ``1 .. nz-1`` of ``su``/``sv`` and ``1 .. nz-2`` of ``sw`` are
    written; the structural zeros (level 0, the top of ``sw``) are the
    caller's.  Returns ``out``.
    """
    nz = u.shape[2]

    # Halo-coordinate views.  C = centred interior; suffixes denote the
    # stencil offset that each view presents at the interior cell.
    C = (slice(1, -1), slice(1, -1))
    IM1 = (slice(0, -2), slice(1, -1))
    IP1 = (slice(2, None), slice(1, -1))
    JM1 = (slice(1, -1), slice(0, -2))
    JP1 = (slice(1, -1), slice(2, None))
    IP1_JM1 = (slice(2, None), slice(0, -2))
    IM1_JP1 = (slice(0, -2), slice(2, None))

    # Vertical slices over the interior arrays (axis 2).
    K = slice(1, None)          # source levels k = 1 .. nz-1
    K_MID = slice(1, nz - 1)    # levels with both vertical terms
    LO = slice(0, nz - 2)       # the level below each K_MID level
    HI = slice(2, nz)           # the level above each K_MID level

    def at(view, ks):
        return view[:, :, ks]

    # ------------------------------------------------------------------ U --
    su = out.su
    su[:, :, K] = mul(tcx, sub(
        mul(at(u[IM1], K), add(at(u[C], K), at(u[IM1], K))),
        mul(at(u[IP1], K), add(at(u[C], K), at(u[IP1], K))),
    ))
    su[:, :, K] = add(su[:, :, K], mul(tcy, sub(
        mul(at(u[JM1], K), add(at(v[JM1], K), at(v[IP1_JM1], K))),
        mul(at(u[JP1], K), add(at(v[C], K), at(v[IP1], K))),
    )))
    # Both vertical terms for 1 <= k <= nz-2.
    su[:, :, K_MID] = add(su[:, :, K_MID], sub(
        mul(mul(tzc1[K_MID], at(u[C], LO)),
            add(at(w[C], LO), at(w[IP1], LO))),
        mul(mul(tzc2[K_MID], at(u[C], HI)),
            add(at(w[C], K_MID), at(w[IP1], K_MID))),
    ))
    # One-sided term at the column top, k = nz-1.
    su[:, :, nz - 1] = add(su[:, :, nz - 1], mul(
        mul(tzc1[nz - 1], at(u[C], nz - 2)),
        add(at(w[C], nz - 2), at(w[IP1], nz - 2)),
    ))

    # ------------------------------------------------------------------ V --
    sv = out.sv
    sv[:, :, K] = mul(tcy, sub(
        mul(at(v[JM1], K), add(at(v[C], K), at(v[JM1], K))),
        mul(at(v[JP1], K), add(at(v[C], K), at(v[JP1], K))),
    ))
    sv[:, :, K] = add(sv[:, :, K], mul(tcx, sub(
        mul(at(v[IM1], K), add(at(u[IM1], K), at(u[IM1_JP1], K))),
        mul(at(v[IP1], K), add(at(u[C], K), at(u[JP1], K))),
    )))
    sv[:, :, K_MID] = add(sv[:, :, K_MID], sub(
        mul(mul(tzc1[K_MID], at(v[C], LO)),
            add(at(w[C], LO), at(w[JP1], LO))),
        mul(mul(tzc2[K_MID], at(v[C], HI)),
            add(at(w[C], K_MID), at(w[JP1], K_MID))),
    ))
    sv[:, :, nz - 1] = add(sv[:, :, nz - 1], mul(
        mul(tzc1[nz - 1], at(v[C], nz - 2)),
        add(at(w[C], nz - 2), at(w[JP1], nz - 2)),
    ))

    # ------------------------------------------------------------------ W --
    # W sources exist only strictly inside the column: 1 <= k <= nz-2.
    sw = out.sw
    sw[:, :, K_MID] = mul(tcx, sub(
        mul(at(w[IM1], K_MID), add(at(u[IM1], K_MID), at(u[IM1], HI))),
        mul(at(w[IP1], K_MID), add(at(u[C], K_MID), at(u[C], HI))),
    ))
    sw[:, :, K_MID] = add(sw[:, :, K_MID], mul(tcy, sub(
        mul(at(w[JM1], K_MID), add(at(v[JM1], K_MID), at(v[JM1], HI))),
        mul(at(w[JP1], K_MID), add(at(v[C], K_MID), at(v[C], HI))),
    )))
    sw[:, :, K_MID] = add(sw[:, :, K_MID], sub(
        mul(mul(tzd1[K_MID], at(w[C], LO)),
            add(at(w[C], K_MID), at(w[C], LO))),
        mul(mul(tzd2[K_MID], at(w[C], HI)),
            add(at(w[C], K_MID), at(w[C], HI))),
    ))

    return out


def advect_reference(fields: FieldSet,
                     coeffs: AdvectionCoefficients | None = None,
                     out: SourceSet | None = None) -> SourceSet:
    """Compute PW advection source terms with vectorised NumPy.

    Parameters
    ----------
    fields:
        Wind components with valid halos.
    coeffs:
        Advection coefficients; defaults to the uniform atmosphere.
    out:
        Optional pre-allocated :class:`SourceSet` to fill in place (its
        contents are overwritten), saving allocations in time-stepping loops.

    Returns
    -------
    SourceSet
        Matches :func:`repro.core.golden.advect_golden` bit-for-bit: the
        expression trees are identical, only the iteration is vectorised.
    """
    grid = fields.grid
    if coeffs is None:
        coeffs = AdvectionCoefficients.uniform(grid)
    if coeffs.nz != grid.nz:
        raise ValueError(
            f"coefficients are for nz={coeffs.nz}, grid has nz={grid.nz}"
        )
    if out is None:
        out = SourceSet.zeros(grid)
    else:
        if out.grid.interior_shape != grid.interior_shape:
            raise ValueError("output SourceSet has a different grid shape")
        out.su.fill(0.0)
        out.sv.fill(0.0)
        out.sw.fill(0.0)

    return pw_tree(fields.u, fields.v, fields.w, coeffs.tcx, coeffs.tcy,
                   coeffs.tzc1, coeffs.tzc2, coeffs.tzd1, coeffs.tzd2, out)
