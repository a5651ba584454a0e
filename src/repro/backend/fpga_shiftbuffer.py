"""The FPGA shift-buffer backend: today's U280 / Stratix 10 path.

This backend is a *routing* layer, not a re-implementation: it wraps the
exact objects every existing flow already uses — catalog lookup via
:func:`repro.hardware.devices.device_by_name`, the derived
:class:`~repro.tune.space.ParameterSpace`, the lint-gated
:class:`~repro.tune.cost.CostModel`, the Fig. 2 structural graph from
:func:`repro.kernel.builder.build_structural_graph`, and
:func:`repro.lint.runner.lint_kernel` — so routing U280/Stratix 10 work
through the backend interface is bit-identical to calling those objects
directly (the golden fixtures pin this).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.backend.base import Backend, register_backend
from repro.constants import average_ops_per_cycle
from repro.core.grid import Grid
from repro.errors import BackendError, ConfigurationError
from repro.hardware.device import FPGADevice
from repro.hardware.devices import device_by_name
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.lint.diagnostics import LintReport
from repro.lint.runner import lint_kernel
from repro.tune.cost import CostModel
from repro.tune.space import ParameterSpace, TunePoint

__all__ = ["FpgaShiftBufferBackend", "FPGA_SHIFTBUFFER"]


class FpgaShiftBufferBackend(Backend):
    """Shift-buffer dataflow FPGAs (Alveo U280, Stratix 10 GX 2800)."""

    id = "fpga_shiftbuffer"
    title = "FPGA shift-buffer dataflow (U280 / Stratix 10)"
    default_device = "u280"

    def device_names(self) -> tuple[str, ...]:
        return ("u280", "stratix10")

    def resolve_device(self, name: "str | FPGADevice | None" = None
                       ) -> FPGADevice:
        if isinstance(name, FPGADevice):
            return name
        try:
            device = device_by_name(name or self.default_device)
        except ConfigurationError as error:
            raise BackendError(str(error)) from error
        if not isinstance(device, FPGADevice):
            raise BackendError(
                f"device {name!r} is not an FPGA; the {self.id} backend "
                f"targets {', '.join(self.device_names())}"
            )
        return device

    def parameter_space(self, device: Any, grid: Grid, *,
                        wide_precision: bool = False) -> ParameterSpace:
        return ParameterSpace.derive(device, grid,
                                     wide_precision=wide_precision)

    def cost_model(self, device: Any, grid: Grid, *,
                   flops_scale: float = 1.0) -> CostModel:
        return CostModel(device, grid, flops_scale=flops_scale)

    def point_from_dict(self, data: dict) -> TunePoint:
        return TunePoint(**data)

    def structural_graph(self, grid: Grid, *, point: Any | None = None,
                         read_ii: int = 1) -> Any:
        config = (point.config(grid) if point is not None
                  else KernelConfig(grid=grid))
        return build_structural_graph(config, read_ii=read_ii)

    def lint(self, grid: Grid, *, device: Any | None = None,
             num_kernels: int | None = None, select: Any = None,
             ignore: Any = None, subject: str = "") -> LintReport:
        resolved = self.resolve_device(device)
        config = KernelConfig(grid=grid)
        return lint_kernel(config, resolved, num_kernels,
                           select=select, ignore=ignore, subject=subject)

    def roofline(self, column_height: int = 64) -> dict:
        """Replica-scaled shift-buffer peak for the default device.

        Each replica retires one cell per cycle at the degraded clock, so
        the attainable rate is ``replicas x clock x avg ops/cell`` — the
        paper's Table I arithmetic, with the replica count taken from the
        fabric fit at the default chunk width.
        """
        device = self.resolve_device()
        grid = Grid(64, 64, column_height)
        config = KernelConfig(grid=grid)
        replicas = max(1, device.max_kernels(config))
        clock_mhz = device.clock.frequency_mhz(replicas)
        ops = average_ops_per_cycle(column_height)
        cells_per_second = replicas * clock_mhz * 1e6
        return {
            "backend": self.id,
            "device": device.name,
            "column_height": column_height,
            "replicas": replicas,
            "clock_mhz": clock_mhz,
            "ops_per_cell": ops,
            "cells_per_second": cells_per_second,
            "attainable_gflops": cells_per_second * ops / 1e9,
            "feed_bound": False,
        }

    def scenario_candidates(self, device: Any,
                            grid: Grid) -> Iterator[TunePoint]:
        space = ParameterSpace.derive(device, grid)
        depth = 4 if 4 in space.stream_depths else space.stream_depths[0]
        x_chunks = 16 if 16 in space.x_chunks else space.x_chunks[0]
        for width in dict.fromkeys(
                (space.chunk_widths[-1], space.chunk_widths[0])):
            for kernels in reversed(space.num_kernels):
                yield TunePoint(
                    chunk_width=width, num_kernels=kernels,
                    stream_depth=depth, precision="float64",
                    memory=space.memories[0], x_chunks=x_chunks,
                    overlapped=True,
                )


FPGA_SHIFTBUFFER = register_backend(FpgaShiftBufferBackend())
