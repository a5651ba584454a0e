"""Experiment harness: regenerate every table and figure of the paper.

Each module reproduces one evaluation artefact through the device models
and schedules (never by echoing stored results):

* :mod:`repro.experiments.table1` — Table I, kernel-only comparison,
* :mod:`repro.experiments.table2` — Table II, HBM2 vs DDR on the U280,
* :mod:`repro.experiments.fig5` — Fig. 5, multi-kernel without overlap,
* :mod:`repro.experiments.fig6` — Fig. 6, multi-kernel with overlap,
* :mod:`repro.experiments.fig7` — Fig. 7, power,
* :mod:`repro.experiments.fig8` — Fig. 8, power efficiency.

``python -m repro.experiments.run_all`` prints them all;
:data:`repro.experiments.registry.EXPERIMENTS` maps ids to runners.
"""

from typing import Any

from repro import LazyExports

__all__ = ["EXPERIMENTS", "ExperimentResult", "run_experiment"]

_EXPORTS = LazyExports(__name__, {
    "repro.experiments.registry": ("EXPERIMENTS", "ExperimentResult",
                                   "run_experiment"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
