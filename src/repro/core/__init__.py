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

from repro.core.coefficients import AdvectionCoefficients
from repro.core.diagnostics import (
    cfl_field,
    divergence,
    kinetic_energy,
    vorticity_z,
)
from repro.core.fields import FieldSet, SourceSet
from repro.core.flops import (
    cell_flops,
    column_flops,
    field_flops,
    grid_flops,
    strict_grid_flops,
)
from repro.core.golden import advect_golden
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.spectra import energy_spectrum
from repro.core.timestepping import AdvectionIntegrator
from repro.core.wind import (
    constant_wind,
    gravity_current,
    random_wind,
    shear_layer,
    solid_body_rotation,
    taylor_green,
    thermal_bubble,
)

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
