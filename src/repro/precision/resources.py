"""Resource impact of reduced precision (the paper's §V motivation).

Narrower operators and buffers shrink the kernel: operator DSP/logic
costs scale roughly with the square of mantissa width for multipliers and
linearly for adders, and the shift buffers shrink linearly with the
storage width.  This module projects the kernel's footprint at a given
format and answers the question §V poses — how many more kernels fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector, fit_kernels
from repro.kernel.config import KernelConfig
from repro.perf.theoretical import theoretical_gflops
from repro.precision.formats import NumberFormat

__all__ = ["precision_kernel_resources", "precision_fit_report",
           "PrecisionFitReport"]


def _mul_cost_scale(fmt: NumberFormat) -> float:
    """Multiplier cost relative to float64 (quadratic in mantissa width)."""
    base = 53.0  # float64 significand incl. hidden bit
    width = getattr(fmt, "mantissa_bits", None)
    if width is None:  # fixed point: the full word multiplies
        width = fmt.bits - 1
    else:
        width += 1
    return (width / base) ** 2


def _linear_cost_scale(fmt: NumberFormat) -> float:
    """Adder/register/buffer cost relative to float64 (linear in bits)."""
    return fmt.bits / 64.0


def precision_kernel_resources(config: KernelConfig, device: FPGADevice,
                               fmt: NumberFormat) -> ResourceVector:
    """The advection kernel's footprint at a reduced precision."""
    base = device.kernel_resources(config)
    mul_scale = _mul_cost_scale(fmt)
    lin_scale = _linear_cost_scale(fmt)
    # Multipliers dominate DSP use; adders and wiring dominate logic;
    # buffers scale with storage width.  Blend accordingly.
    dsp_scale = 0.8 * mul_scale + 0.2 * lin_scale
    logic_scale = 0.5 * mul_scale + 0.5 * lin_scale
    return ResourceVector(
        luts=int(base.luts * logic_scale),
        registers=int(base.registers * lin_scale),
        bram_bytes=int(base.bram_bytes * lin_scale),
        uram_bytes=int(base.uram_bytes * lin_scale),
        dsp=max(1, int(base.dsp * dsp_scale)) if base.dsp else 0,
        alms=int(base.alms * logic_scale),
        m20k_bytes=int(base.m20k_bytes * lin_scale),
        mlab_bytes=int(base.mlab_bytes * lin_scale),
    )


@dataclass(frozen=True)
class PrecisionFitReport:
    """How a format changes the multi-kernel picture on one device."""

    device: str
    format_name: str
    bits: int
    kernels_fit: int
    kernels_fit_float64: int
    projected_peak_gflops: float

    @property
    def extra_kernels(self) -> int:
        return self.kernels_fit - self.kernels_fit_float64


def precision_fit_report(config: KernelConfig, device: FPGADevice,
                         fmt: NumberFormat) -> PrecisionFitReport:
    """Kernels that fit, and the projected peak, at a reduced precision.

    The projected peak assumes the clock of the float64 design at the new
    kernel count (narrow logic typically closes timing at least as fast).
    """
    base_fit = fit_kernels(device.kernel_resources(config), device.capacity,
                           device.shell)
    fmt_fit = fit_kernels(precision_kernel_resources(config, device, fmt),
                          device.capacity, device.shell)
    clock_mhz = device.clock.frequency_mhz(max(1, fmt_fit))
    return PrecisionFitReport(
        device=device.name,
        format_name=fmt.name,
        bits=fmt.bits,
        kernels_fit=fmt_fit,
        kernels_fit_float64=base_fit,
        projected_peak_gflops=theoretical_gflops(
            clock_mhz, column_height=config.grid.nz,
            num_kernels=max(1, fmt_fit)),
    )

