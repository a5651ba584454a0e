"""Shared workload definitions for the experiment harness."""

from __future__ import annotations

from repro.core.grid import Grid
from repro.hardware.devices import (
    ALVEO_U280,
    STRATIX10_GX2800,
    TESLA_V100,
    XEON_8260M,
)
from repro.kernel.config import KernelConfig

__all__ = [
    "paper_grid",
    "standard_config",
    "MULTI_KERNEL_SIZES",
    "TABLE2_SIZES",
    "SWEEP_DEVICES",
]

#: Grid sizes of the multi-kernel sweeps (Figs. 5-8).
MULTI_KERNEL_SIZES: tuple[str, ...] = ("16M", "67M", "268M", "536M")

#: Grid sizes of Table II.
TABLE2_SIZES: tuple[str, ...] = ("1M", "4M", "16M", "67M")

#: Devices of the multi-kernel sweeps, in the paper's plotting order.
SWEEP_DEVICES = (
    ("cpu", XEON_8260M),
    ("v100", TESLA_V100),
    ("u280", ALVEO_U280),
    ("stratix10", STRATIX10_GX2800),
)


#: The grid behind one of the paper's size labels ('16M', ...).
paper_grid = Grid.from_label


def standard_config(label: str = "16M") -> KernelConfig:
    """The kernel design used throughout the evaluation."""
    return KernelConfig(grid=paper_grid(label))
