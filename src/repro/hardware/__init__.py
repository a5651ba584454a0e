"""Hardware models: FPGAs, memory systems, PCIe links, clocks and power.

The paper's evaluation hardware (Xilinx Alveo U280, Bittware 520N / Intel
Stratix 10 GX 2800, 24-core Xeon Platinum 8260M, NVIDIA Tesla V100) is not
available to a Python reproduction, so this subpackage models each device
from its published specifications plus a small set of effective-throughput
calibration constants derived from the paper's own measurements (see
:mod:`repro.perf.calibration`).  All performance arithmetic in the
experiment harness flows through these models — nothing is a hard-coded
result.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "ClockModel",
    "CPUModel",
    "GPUModel",
    "FPGADevice",
    "MemorySpec",
    "StreamingMemoryModel",
    "PCIeLink",
    "PowerModel",
    "ResourceVector",
    "estimate_kernel_resources",
    "ALVEO_U280",
    "STRATIX10_GX2800",
    "XEON_8260M",
    "TESLA_V100",
    "device_by_name",
]

_EXPORTS = LazyExports(__name__, {
    "repro.hardware.clock": ("ClockModel",),
    "repro.hardware.cpu": ("CPUModel",),
    "repro.hardware.device": ("FPGADevice",),
    "repro.hardware.devices": ("ALVEO_U280", "STRATIX10_GX2800", "TESLA_V100",
                               "XEON_8260M", "device_by_name"),
    "repro.hardware.gpu": ("GPUModel",),
    "repro.hardware.memory": ("MemorySpec", "StreamingMemoryModel"),
    "repro.hardware.pcie": ("PCIeLink",),
    "repro.hardware.power": ("PowerModel",),
    "repro.hardware.resources": ("ResourceVector",
                                 "estimate_kernel_resources"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
