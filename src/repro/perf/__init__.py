"""Performance metrics, theoretical peaks and calibration.

The paper's central methodological tool is the *theoretical performance*
of a dataflow design — operations per cycle times clock frequency — used
as the yardstick every implementation is measured against
(:mod:`repro.perf.theoretical`).  :mod:`repro.perf.calibration` documents
how each effective-throughput constant in the device catalog was derived
from the paper's published measurements, and verifies the derivations
numerically.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "theoretical_gflops",
    "percent_of_theoretical",
    "KernelMetrics",
    "compare_to_paper",
    "CALIBRATION",
    "CalibrationEntry",
    "BenchRecord",
    "BenchSuite",
    "load_suite",
    "speedup",
]

_EXPORTS = LazyExports(__name__, {
    "repro.perf.bench": ("BenchRecord", "BenchSuite", "load_suite", "speedup"),
    "repro.perf.calibration": ("CALIBRATION", "CalibrationEntry"),
    "repro.perf.metrics": ("KernelMetrics", "compare_to_paper"),
    "repro.perf.theoretical": ("percent_of_theoretical", "theoretical_gflops"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
