"""repro: reproduction of "Accelerating advection for atmospheric modelling
on Xilinx and Intel FPGAs" (N. Brown, IEEE CLUSTER 2021).

The package implements, in pure Python/NumPy:

* the Met Office Piacsek-Williams (PW) advection scheme used by MONC
  (:mod:`repro.core`) — both a scalar specification and a fast vectorised
  reference;
* a cycle-level dataflow machine simulator (:mod:`repro.dataflow`) and the
  paper's 3D shift buffer (:mod:`repro.shiftbuffer`);
* the advection kernel assembled per the paper's Fig. 2
  (:mod:`repro.kernel`), with a cycle-accurate simulation, a fast
  functional path, and a closed-form cycle model that the simulator
  validates;
* models of the evaluation hardware (:mod:`repro.hardware`) and the
  OpenCL-style host runtime with transfer/compute overlap
  (:mod:`repro.runtime`);
* performance metrics and paper calibration (:mod:`repro.perf`) and the
  experiment harness regenerating every table and figure
  (:mod:`repro.experiments`).

Quick start::

    from repro.core import Grid, thermal_bubble, advect_reference
    grid = Grid(nx=32, ny=32, nz=64)
    sources = advect_reference(thermal_bubble(grid))

See README.md for the full tour and DESIGN.md for the architecture.

Every subpackage loads its exports on first use: ``repro.tune.tune``
imports :mod:`repro.tune.tuner` the first time it is read, so importing
one submodule never loads its siblings (:class:`LazyExports`).
"""

import importlib
import sys
from typing import Any, Iterable, Mapping

from repro import constants
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["constants", "ReproError", "__version__"]


class LazyExports:
    """One subpackage's exports, each loaded on first access (PEP 562).

    A subpackage names its public API in ``__all__``, maps each name to
    the submodule that defines it in one of these tables, and hands the
    table its module-level ``__getattr__`` and ``__dir__``, spelled out
    so that type checkers see them::

        _EXPORTS = LazyExports(__name__, {
            "repro.pkg.mod": ("Name", "function"),
        })


        def __getattr__(name: str) -> Any:
            return _EXPORTS.resolve(name)


        def __dir__() -> list[str]:
            return _EXPORTS.names(globals())

    Parameters
    ----------
    package:
        The subpackage's ``__name__``.
    modules:
        Absolute submodule name -> the exported names it defines.
    """

    def __init__(self, package: str,
                 modules: Mapping[str, Iterable[str]]) -> None:
        self.package = package
        #: exported name -> absolute name of the module that defines it.
        self.table = {name: module for module, names in modules.items()
                      for name in names}

    def resolve(self, name: str) -> Any:
        """The value of ``package.name``, bound in the package once read.

        An error raised while importing the submodule propagates as it
        is; a name the table does not hold raises :class:`AttributeError`.
        """
        try:
            module = self.table[name]
        except KeyError:
            raise AttributeError(
                f"module {self.package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[self.package], name, value)
        return value

    def names(self, namespace: Iterable[str]) -> list[str]:
        """``dir(package)``: what the package holds plus every export."""
        return sorted({*namespace, *self.table})
