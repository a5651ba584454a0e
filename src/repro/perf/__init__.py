"""Performance metrics, theoretical peaks and calibration.

The paper's central methodological tool is the *theoretical performance*
of a dataflow design — operations per cycle times clock frequency — used
as the yardstick every implementation is measured against
(:mod:`repro.perf.theoretical`).  :mod:`repro.perf.calibration` documents
how each effective-throughput constant in the device catalog was derived
from the paper's published measurements, and verifies the derivations
numerically.
"""

from repro.perf.bench import BenchRecord, BenchSuite, load_suite, speedup
from repro.perf.calibration import CALIBRATION, CalibrationEntry
from repro.perf.metrics import KernelMetrics, compare_to_paper
from repro.perf.theoretical import (
    percent_of_theoretical,
    theoretical_gflops,
)

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
