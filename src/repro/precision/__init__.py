"""Reduced-precision and fixed-point arithmetic (the paper's §V future work).

The paper's conclusion: "exploring the role of reduced precision and
fixed point arithmetic would be interesting.  This could reduce the
amount of resource required for our shift buffers and advection
calculations, as such enabling more kernels to be fitted onto the chip."

This subpackage makes that exploration runnable:

* :mod:`repro.precision.formats` — float64/float32/bfloat16-style formats
  and Q-format fixed point, with value-level quantisation;
* :mod:`repro.precision.kernel` — the oracle's PW expression tree
  evaluated with every intermediate rounded to a chosen format (a
  bit-accurate model of a reduced-precision datapath);
* :mod:`repro.precision.analysis` — numerical-error studies against the
  float64 reference;
* :mod:`repro.precision.resources` — precision-dependent operator and
  buffer costs, so the device models answer "how many kernels would fit".
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "NumberFormat",
    "FloatFormat",
    "FixedPointFormat",
    "FLOAT64",
    "FLOAT32",
    "BFLOAT16",
    "advect_quantised",
    "precision_error_study",
    "PrecisionErrorReport",
    "precision_kernel_resources",
    "precision_fit_report",
]

_EXPORTS = LazyExports(__name__, {
    "repro.precision.analysis": ("PrecisionErrorReport",
                                 "precision_error_study"),
    "repro.precision.formats": ("BFLOAT16", "FLOAT32", "FLOAT64",
                                "FixedPointFormat", "FloatFormat",
                                "NumberFormat"),
    "repro.precision.kernel": ("advect_quantised",),
    "repro.precision.resources": ("precision_kernel_resources",
                                  "precision_fit_report"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
