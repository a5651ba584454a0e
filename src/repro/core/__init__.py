"""The Piacsek-Williams (PW) advection scheme and its supporting numerics.

This subpackage is the *scientific* half of the reproduction: the grid
geometry, the advection coefficients, a scalar loop-nest implementation that
mirrors the MONC Fortran (:mod:`repro.core.golden`), and a fast vectorised
NumPy implementation (:mod:`repro.core.reference`) used as the golden
reference for every simulator path in the library.  The flow diagnostics
(:mod:`repro.core.diagnostics`, :mod:`repro.core.spectra`) judge the
advected fields by their physics: divergence, vorticity, kinetic energy,
CFL headroom and horizontal energy spectra.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "AdvectionCoefficients",
    "FieldSet",
    "SourceSet",
    "Grid",
    "advect_golden",
    "advect_reference",
    "AdvectionIntegrator",
    "cell_flops",
    "column_flops",
    "field_flops",
    "grid_flops",
    "strict_grid_flops",
    "constant_wind",
    "gravity_current",
    "random_wind",
    "shear_layer",
    "solid_body_rotation",
    "taylor_green",
    "thermal_bubble",
    "divergence",
    "vorticity_z",
    "kinetic_energy",
    "cfl_field",
    "energy_spectrum",
]

_EXPORTS = LazyExports(__name__, {
    "repro.core.coefficients": ("AdvectionCoefficients",),
    "repro.core.diagnostics": ("cfl_field", "divergence", "kinetic_energy",
                               "vorticity_z"),
    "repro.core.fields": ("FieldSet", "SourceSet"),
    "repro.core.flops": ("cell_flops", "column_flops", "field_flops",
                         "grid_flops", "strict_grid_flops"),
    "repro.core.golden": ("advect_golden",),
    "repro.core.grid": ("Grid",),
    "repro.core.reference": ("advect_reference",),
    "repro.core.spectra": ("energy_spectrum",),
    "repro.core.timestepping": ("AdvectionIntegrator",),
    "repro.core.wind": ("constant_wind", "gravity_current", "random_wind",
                        "shear_layer", "solid_body_rotation", "taylor_green",
                        "thermal_bubble"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
