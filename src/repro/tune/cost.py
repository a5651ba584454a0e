"""Analytic cost model: one :class:`TunePoint` -> one :class:`Evaluation`.

Composes the models the repo already trusts rather than inventing new
ones: the lint budget rules decide *feasibility* (a point the linter
rejects is never costed, so the tuner can only propose deployments that
would also pass ``repro lint``), the device invocation model prices the
kernel (pipeline cycles at the degraded clock versus burst-efficient
memory streaming), the runtime session prices the end-to-end run
including PCIe overlap, the resource estimator prices fabric utilisation
(precision-scaled, plus the inter-stage FIFO footprint so stream depth
is a live axis), and the power model prices watts.

Every number the search or the Pareto extraction consumes lives on the
:class:`Evaluation`; infeasible points carry their lint codes and cost
``-inf`` under any objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analyze.kernel import static_kernel_cycles
from repro.analyze.report import AnalysisReport, analyze_graph
from repro.core.flops import grid_flops
from repro.core.grid import Grid
from repro.errors import CapacityError, ConfigurationError, TuneError
from repro.hardware.device import FPGADevice, InvocationEstimate
from repro.hardware.resources import ResourceVector
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.lint.builders import build_structural_graph
from repro.lint.runner import lint_kernel
from repro.precision.formats import FLOAT64
from repro.precision.resources import precision_kernel_resources
from repro.runtime.session import AdvectionSession, RunResult
from repro.tune.space import TunePoint

__all__ = ["Evaluation", "CostModel", "OBJECTIVES"]

#: Objective names -> short description (all maximised by the search).
OBJECTIVES: dict[str, str] = {
    "kernel": "sustained kernel-only GFLOPS (Table I/III convention)",
    "end_to_end": "end-to-end GFLOPS including PCIe transfers",
    "efficiency": "end-to-end GFLOPS per watt (Fig. 8 convention)",
}

#: Inter-stage FIFO streams in the Fig. 2 dataflow graph (three wind
#: reads, three source writes, plus the two internal stage links).
_FIFO_STREAMS: int = 8

#: Decimal places kept on every float in reports — byte-stable JSON.
ROUND_DIGITS: int = 6


def _rounded(value: float) -> float:
    return round(float(value), ROUND_DIGITS)


@dataclass(frozen=True)
class Evaluation:
    """Everything the cost model says about one candidate point.

    ``point`` is a :class:`TunePoint` on the FPGA backend; other
    backends store their own point type (duck-typed: ``key()``,
    ``to_dict()``, ``num_kernels``, and a total order).
    """

    point: Any
    feasible: bool
    reject_codes: tuple[str, ...] = ()
    reject_reason: str = ""
    kernel_gflops: float = 0.0
    end_to_end_gflops: float = 0.0
    gflops_per_watt: float = 0.0
    kernel_seconds: float = 0.0
    runtime_seconds: float = 0.0
    transfer_seconds: float = 0.0
    watts: float = 0.0
    utilisation: float = 0.0
    utilisation_by_axis: dict[str, float] = field(default_factory=dict)
    clock_mhz: float = 0.0
    memory_bound: bool = False
    analytic_cycles: int = 0
    #: Proved invocation cycle bound from the static verifier
    #: (:func:`repro.analyze.static_kernel_cycles`); 0 when infeasible.
    static_cycles: int = 0

    def objective(self, name: str) -> float:
        """Scalar score under ``name`` (``-inf`` when infeasible)."""
        if name not in OBJECTIVES:
            raise TuneError(
                f"unknown objective {name!r}; known: {sorted(OBJECTIVES)}"
            )
        if not self.feasible:
            return float("-inf")
        if name == "kernel":
            return self.kernel_gflops
        if name == "end_to_end":
            return self.end_to_end_gflops
        return self.gflops_per_watt

    def sort_key(self, objective: str) -> tuple:
        """Total deterministic order: objective, then compute headroom.

        Ties on the objective are broken toward the configuration with
        the larger theoretical compute peak (replicas x clock) — prefer
        the deployment with headroom — and finally by the canonical
        point order so the ranking is a total order.
        """
        return (
            self.objective(objective),
            self.point.num_kernels * self.clock_mhz,
            self.point,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point.to_dict(),
            "key": self.point.key(),
            "feasible": self.feasible,
            "reject_codes": list(self.reject_codes),
            "reject_reason": self.reject_reason,
            "kernel_gflops": _rounded(self.kernel_gflops),
            "end_to_end_gflops": _rounded(self.end_to_end_gflops),
            "gflops_per_watt": _rounded(self.gflops_per_watt),
            "kernel_seconds": _rounded(self.kernel_seconds),
            "runtime_seconds": _rounded(self.runtime_seconds),
            "transfer_seconds": _rounded(self.transfer_seconds),
            "watts": _rounded(self.watts),
            "utilisation": _rounded(self.utilisation),
            "utilisation_by_axis": {
                axis: _rounded(value)
                for axis, value in sorted(self.utilisation_by_axis.items())
            },
            "clock_mhz": _rounded(self.clock_mhz),
            "memory_bound": self.memory_bound,
            "analytic_cycles": self.analytic_cycles,
            "static_cycles": self.static_cycles,
        }


def _infeasible(point: Any, codes: tuple[str, ...],
                reason: str) -> Evaluation:
    return Evaluation(point=point, feasible=False, reject_codes=codes,
                      reject_reason=reason)


class CostModel:
    """Lint-gated analytic pricing of tune points on one device."""

    def __init__(self, device: FPGADevice, grid: Grid, *,
                 flops_scale: float = 1.0) -> None:
        if not flops_scale > 0:
            raise TuneError(
                f"flops_scale must be > 0, got {flops_scale}")
        self.device = device
        self.grid = grid
        #: Operation intensity relative to the advection kernel the
        #: pricing models assume (scenario kernels stream cells at the
        #: same rate but issue a different per-cell op count, so their
        #: GFLOPS axes re-scale by this ratio).
        self.flops_scale = flops_scale
        self._flops = round(grid_flops(grid) * flops_scale)
        # Each sub-model's result per distinct input, keyed by the
        # inputs it reads.  A search visits every config many times (at
        # 64^3 on the U280, 864 points share 3 structural graphs, 72
        # lint inputs, 12 configs, 144 invocations and 288 host
        # schedules); the dicts live and die with this model, so a
        # fresh process still pays every cold call.
        self._analyses: dict[int, AnalysisReport] = {}
        self._lint_codes: dict[tuple[KernelConfig, int],
                               tuple[str, ...]] = {}
        self._cycles: dict[KernelConfig, tuple[int, int]] = {}
        self._invocations: dict[tuple[KernelConfig, int, str],
                                InvocationEstimate] = {}
        self._runs: dict[tuple[int, int, str, str, int, bool],
                         RunResult] = {}

    # -- feasibility ---------------------------------------------------------

    def _resources(self, point: TunePoint) -> ResourceVector:
        """Fabric one replica occupies: precision-scaled kernel + FIFOs.

        The base estimate uses float64 storage words so the precision
        scaling is applied exactly once (``config.buffer_bytes`` already
        tracks ``word_bytes``; feeding a narrow-word config into the
        precision scaler would shrink the buffers twice).
        """
        config = KernelConfig(
            grid=self.grid, chunk_width=point.chunk_width,
            stream_depth=point.stream_depth, word_bytes=8)
        kernel = precision_kernel_resources(config, self.device,
                                            point.format)
        fifo_bytes = (point.stream_depth * point.word_bytes
                      * _FIFO_STREAMS * self.grid.nz)
        if self.device.family == "xilinx":
            return kernel + ResourceVector(bram_bytes=fifo_bytes)
        return kernel + ResourceVector(m20k_bytes=fifo_bytes)

    def lint_gate(self, point: TunePoint) -> tuple[str, ...]:
        """Error codes the linter raises for this point (empty = pass)."""
        config = point.config(self.grid)
        key = (config, point.num_kernels)
        if key not in self._lint_codes:
            report = lint_kernel(config, self.device, point.num_kernels,
                                 analysis=self._analysis(config))
            self._lint_codes[key] = tuple(
                sorted({d.code for d in report.errors}))
        codes = self._lint_codes[key]
        if codes:
            return codes
        if point.precision != "float64":
            # The linter budgets the float64 kernel; re-check the fit
            # with the precision-scaled footprint (never *less* fits).
            usage = self.device.shell + self._resources(point).scaled(
                point.num_kernels)
            if not usage.fits_in(self.device.capacity):
                return ("RS201",)
        if point.memory not in self.device.memories:
            return ("TN001",)
        data_bytes = config.bytes_per_cell_cycle * self.grid.num_cells
        if not self.device.memories[point.memory].fits(data_bytes):
            return ("RS204",)
        return ()

    # -- pricing -------------------------------------------------------------

    def evaluate(self, point: TunePoint) -> Evaluation:
        """Price one point, or reject it with the linter's codes."""
        codes = self.lint_gate(point)
        if codes:
            return _infeasible(
                point, codes,
                f"rejected by lint gate ({', '.join(codes)})")
        config = point.config(self.grid)
        try:
            invocation = self._invocation(config, point.num_kernels,
                                          point.memory)
            run = self._run(point, config)
        except (CapacityError, ConfigurationError) as error:
            return _infeasible(point, ("TN002",), str(error))

        usage = self.device.shell + self._resources(point).scaled(
            point.num_kernels)
        by_axis = usage.utilisation(self.device.capacity)
        if config not in self._cycles:
            self._cycles[config] = (KernelCycleModel(config).cycles(),
                                    static_kernel_cycles(config))
        analytic_cycles, static_cycles = self._cycles[config]
        return Evaluation(
            point=point,
            feasible=True,
            kernel_gflops=invocation.gflops(self.grid) * self.flops_scale,
            end_to_end_gflops=run.gflops * self.flops_scale,
            gflops_per_watt=run.gflops_per_watt * self.flops_scale,
            kernel_seconds=invocation.seconds,
            runtime_seconds=run.runtime_seconds,
            transfer_seconds=run.transfer_seconds,
            watts=run.average_watts,
            utilisation=max(by_axis.values(), default=0.0),
            utilisation_by_axis=by_axis,
            clock_mhz=invocation.clock_hz / 1e6,
            memory_bound=invocation.memory_bound,
            analytic_cycles=analytic_cycles,
            static_cycles=static_cycles,
        )

    def _analysis(self, config: KernelConfig) -> AnalysisReport:
        """The proof of ``config``'s Fig. 2 structural graph.

        The graph reads the stream depth, the stage latencies and the
        initiation intervals.  A point's config sets only the depth of
        those, so one proof per depth serves every chunk width, word
        width and replica count.
        """
        depth = config.stream_depth
        if depth not in self._analyses:
            self._analyses[depth] = analyze_graph(
                build_structural_graph(config))
        return self._analyses[depth]

    def _run(self, point: TunePoint, config: KernelConfig) -> RunResult:
        """The end-to-end session run for ``point``'s host schedule.

        The session and the invocation model it calls read the chunk
        width and the word width, never the stream depth (pinned by
        ``tests/runtime/test_session_properties.py``), so points that
        differ only in depth share one run.  Only successful runs are
        kept: a failing one raises again for every point that asks.
        """
        key = (point.chunk_width, point.num_kernels, point.precision,
               point.memory, point.x_chunks, point.overlapped)
        if key not in self._runs:
            session = AdvectionSession(
                self.device, config, num_kernels=point.num_kernels,
                memory=point.memory, x_chunks=point.x_chunks)
            self._runs[key] = session.run(self.grid,
                                          overlapped=point.overlapped)
        return self._runs[key]

    def _invocation(self, config: KernelConfig, num_kernels: int,
                    memory: str) -> InvocationEstimate:
        key = (config, num_kernels, memory)
        if key not in self._invocations:
            self._invocations[key] = self.device.invocation(
                config, self.grid, num_kernels=num_kernels, memory=memory)
        return self._invocations[key]

    def describe(self) -> dict[str, Any]:
        """Context block for reports (device, grid, model constants)."""
        return {
            "device": self.device.name,
            "family": self.device.family,
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny,
                     "nz": self.grid.nz},
            "cells": self.grid.num_cells,
            "flops": self._flops,
            "flops_scale": self.flops_scale,
            "float64_identity": point_identity_check(self),
        }


def point_identity_check(model: CostModel) -> bool:
    """float64 resource scaling must be the identity (sanity anchor)."""
    config = TunePoint(
        chunk_width=min(64, max(2, model.grid.ny)), num_kernels=1,
        stream_depth=4, precision="float64",
        memory=model.device.memory_preference[0]
        if model.device.memory_preference[0] in model.device.memories
        else sorted(model.device.memories)[0],
        x_chunks=16, overlapped=True,
    ).config(model.grid)
    return precision_kernel_resources(
        config, model.device, FLOAT64) == model.device.kernel_resources(config)
