"""Device power models.

Fig. 7 of the paper reports whole-board/package power while running the
advection workload, captured with RAPL (CPU), NVIDIA-SMI (GPU), XRT
(Alveo) and ``aocl_mmd_card_info_fn`` (Stratix 10).  Key observations the
model reproduces:

* CPU and GPU draw several times more power than either FPGA;
* the Stratix 10 draws ~50% more than the Alveo U280;
* switching the U280 from HBM2 to DDR adds only ~12 W — most of the
  Stratix/Alveo gap is *not* the memory technology.

The model is a static board power plus a dynamic term per active kernel
plus a memory-system activity term and a PCIe term while transfers run.
:class:`~repro.runtime.session.AdvectionSession` reports the active draw
of each run (Figs. 7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """Board/package power as a function of activity.

    Parameters
    ----------
    static_watts:
        Idle board power (shell, clocks, fans as reported by the board
        telemetry).
    dynamic_watts_per_kernel:
        Added power per busy kernel replica (or per busy core-group /
        SM-group on CPU/GPU, folded into one number per device).
    memory_watts:
        Added power while the named memory system is streaming, keyed by
        memory name; e.g. ``{"hbm2": 8.0, "ddr": 20.0}`` puts the U280's
        measured +12 W DDR delta into the model.
    transfer_watts:
        Added power while PCIe DMA is active.
    """

    static_watts: float
    dynamic_watts_per_kernel: float
    memory_watts: dict[str, float]
    transfer_watts: float = 5.0

    def __post_init__(self) -> None:
        if self.static_watts <= 0:
            raise ConfigurationError("static power must be positive")
        if self.dynamic_watts_per_kernel < 0 or self.transfer_watts < 0:
            raise ConfigurationError("dynamic power terms must be >= 0")
        if any(w < 0 for w in self.memory_watts.values()):
            raise ConfigurationError("memory power terms must be >= 0")

    def active_watts(self, num_kernels: int, memory: str, *,
                     transferring: bool = False) -> float:
        """Instantaneous draw with ``num_kernels`` busy on ``memory``."""
        if num_kernels < 0:
            raise ConfigurationError(
                f"num_kernels must be >= 0, got {num_kernels}"
            )
        try:
            mem_watts = self.memory_watts[memory] if num_kernels else 0.0
        except KeyError:
            raise ConfigurationError(
                f"no power entry for memory {memory!r}; have "
                f"{sorted(self.memory_watts)}"
            ) from None
        return (
            self.static_watts
            + num_kernels * self.dynamic_watts_per_kernel
            + mem_watts
            + (self.transfer_watts if transferring else 0.0)
        )
