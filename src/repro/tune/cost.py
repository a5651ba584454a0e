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

from repro.analyze.report import AnalysisReport, analyze_graph
from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.errors import CapacityError, ConfigurationError, TuneError
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.lint.diagnostics import LintReport
from repro.lint.runner import lint_kernel, load_builtin_rules
from repro.precision.formats import FLOAT64
from repro.precision.resources import precision_kernel_resources
from repro.runtime.session import AdvectionSession, RunResult, SessionMemo
from repro.tune.space import TunePoint

__all__ = ["Evaluation", "CostModel", "OBJECTIVES"]

#: Objective names -> short description (all maximised by the search).
OBJECTIVES: dict[str, str] = {
    "kernel": "sustained kernel-only GFLOPS (Table I/III convention)",
    "end_to_end": "end-to-end GFLOPS including PCIe transfers",
    "efficiency": "end-to-end GFLOPS per watt (Fig. 8 convention)",
}

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
    #: Invocation cycles; on the FPGA backend the
    #: :class:`~repro.kernel.cycle_model.KernelCycleModel` count, which
    #: equals the proved one.  0 when infeasible.
    analytic_cycles: int = 0

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
        }


def _error_codes(report: LintReport) -> set[str]:
    return {d.code for d in report.errors}


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
        # Each sub-model's result per distinct input, keyed by only the
        # inputs it reads.  A search visits every input many times: at
        # 64^3 on the U280, 864 points share 3 structural graphs, 12
        # configs (each linted once without a replica count, and
        # counted in cycles once), 72 replica-count lint passes, 12
        # replica footprints, 72 utilisations, 48 invocations and 192
        # session runs.  Those runs share one FLOP count, 2 capacity
        # checks, one price per distinct invocation input (the model's
        # own 48 among them: 192 in all) and 4 host-schedule queues
        # (sequential, and overlapped over 8, 16 and 32 X chunks)
        # through one session memo.  The memos live and die with this
        # model, so a fresh process still pays every cold call.
        self._session_memo = SessionMemo()
        self._grid_flops = self._session_memo.flops(grid)
        self._flops = round(self._grid_flops * flops_scale)
        self._structures: dict[int, tuple[DataflowGraph,
                                          AnalysisReport]] = {}
        self._config_codes: dict[KernelConfig, set[str]] = {}
        self._lint_codes: dict[tuple[KernelConfig, int],
                               tuple[str, ...]] = {}
        self._cycles: dict[KernelConfig, int] = {}
        self._footprints: dict[tuple[int, int, str], ResourceVector] = {}
        self._usages: dict[tuple[int, int, str, int],
                           tuple[ResourceVector, dict[str, float]]] = {}
        self._runs: dict[tuple[int, int, str, str, int | None, bool],
                         RunResult] = {}
        #: Codes of the lint rules that read the replica count; the
        #: rest of the catalogue is run once per config.
        self._replica_rules = tuple(
            rule.code for rule in load_builtin_rules()
            if "num_kernels" in rule.requires)

    # -- feasibility ---------------------------------------------------------

    def _resources(self, point: TunePoint) -> ResourceVector:
        """Fabric one replica occupies: precision-scaled kernel + FIFOs.

        The base estimate uses float64 storage words so the precision
        scaling is applied exactly once (``config.buffer_bytes`` already
        tracks ``word_bytes``; feeding a narrow-word config into the
        precision scaler would shrink the buffers twice).  It reads the
        chunk width, the stream depth and the precision.
        """
        key = (point.chunk_width, point.stream_depth, point.precision)
        if key not in self._footprints:
            config = KernelConfig(
                grid=self.grid, chunk_width=point.chunk_width,
                stream_depth=point.stream_depth, word_bytes=8)
            kernel = precision_kernel_resources(config, self.device,
                                                point.format)
            graph, _ = self._structure(config)
            fifo_bytes = (point.stream_depth * point.word_bytes
                          * len(graph.streams) * self.grid.nz)
            self._footprints[key] = kernel + (
                ResourceVector(bram_bytes=fifo_bytes)
                if self.device.family == "xilinx"
                else ResourceVector(m20k_bytes=fifo_bytes))
        return self._footprints[key]

    def _usage(self, point: TunePoint
               ) -> tuple[ResourceVector, dict[str, float]]:
        """The shell plus ``point.num_kernels`` replicas, and its
        utilisation of the device per axis."""
        key = (point.chunk_width, point.stream_depth, point.precision,
               point.num_kernels)
        if key not in self._usages:
            usage = self.device.shell + self._resources(point).scaled(
                point.num_kernels)
            self._usages[key] = (usage,
                                 usage.utilisation(self.device.capacity))
        return self._usages[key]

    def lint_gate(self, point: TunePoint) -> tuple[str, ...]:
        """Error codes the linter raises for this point (empty = pass).

        The catalogue runs once per config with no replica count, and
        the rules that read the replica count run once per (config,
        replicas); the union of their error codes is what one full
        ``lint_kernel(config, device, num_kernels)`` run reports.
        """
        config = point.config(self.grid)
        key = (config, point.num_kernels)
        if key not in self._lint_codes:
            graph, analysis = self._structure(config)
            if config not in self._config_codes:
                self._config_codes[config] = _error_codes(lint_kernel(
                    config, self.device, None, graph=graph,
                    analysis=analysis))
            replicas = _error_codes(lint_kernel(
                config, self.device, point.num_kernels, graph=graph,
                analysis=analysis, select=self._replica_rules))
            self._lint_codes[key] = tuple(
                sorted(self._config_codes[config] | replicas))
        codes = self._lint_codes[key]
        if codes:
            return codes
        if point.precision != "float64":
            # The linter budgets the float64 kernel; re-check the fit
            # with the precision-scaled footprint (never *less* fits).
            usage, _ = self._usage(point)
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
            # Through the sessions' memo: a sequential session run of
            # this config prices the same input.
            invocation = self._session_memo.invocation(
                self.device, config, self.grid,
                num_kernels=point.num_kernels, memory=point.memory)
            run = self._run(point, config)
        except (CapacityError, ConfigurationError) as error:
            return _infeasible(point, ("TN002",), str(error))

        _, by_axis = self._usage(point)
        if config not in self._cycles:
            self._cycles[config] = KernelCycleModel(config).cycles()
        return Evaluation(
            point=point,
            feasible=True,
            # InvocationEstimate.gflops, on the memoised FLOP count.
            kernel_gflops=(self._grid_flops / invocation.seconds / 1e9
                           * self.flops_scale),
            end_to_end_gflops=run.gflops * self.flops_scale,
            gflops_per_watt=run.gflops_per_watt * self.flops_scale,
            kernel_seconds=invocation.seconds,
            runtime_seconds=run.runtime_seconds,
            transfer_seconds=run.transfer_seconds,
            watts=run.average_watts,
            utilisation=max(by_axis.values(), default=0.0),
            # A copy: the memoised dict is shared by every point alike.
            utilisation_by_axis=dict(by_axis),
            clock_mhz=invocation.clock_hz / 1e6,
            memory_bound=invocation.memory_bound,
            analytic_cycles=self._cycles[config],
        )

    def _structure(self, config: KernelConfig
                   ) -> tuple[DataflowGraph, AnalysisReport]:
        """``config``'s Fig. 2 structural graph and its proof.

        The graph reads the stream depth, the stage latencies and the
        initiation intervals.  A point's config sets only the depth of
        those, so one graph and one proof per depth serve every chunk
        width, word width and replica count, and the lint gate reads
        that graph.
        """
        depth = config.stream_depth
        if depth not in self._structures:
            graph = build_structural_graph(config)
            self._structures[depth] = (graph, analyze_graph(graph))
        return self._structures[depth]

    def _run(self, point: TunePoint, config: KernelConfig) -> RunResult:
        """The end-to-end session run for ``point``'s host schedule.

        The session and the invocation model it calls read the chunk
        width and the word width, never the stream depth (pinned by
        ``tests/runtime/test_session_properties.py``), and a sequential
        run never reads the X chunk count, so points that differ only in
        those share one run.  The session is still built for every
        point, so its own checks (an X chunk count below 1) reject each
        point that fails them, whatever ran before.  Only successful
        runs are kept: a failing one raises again for every point that
        asks.
        """
        session = AdvectionSession(
            self.device, config, num_kernels=point.num_kernels,
            memory=point.memory, x_chunks=point.x_chunks,
            memo=self._session_memo)
        key = (point.chunk_width, point.num_kernels, point.precision,
               point.memory, point.x_chunks if point.overlapped else None,
               point.overlapped)
        if key not in self._runs:
            self._runs[key] = session.run(self.grid,
                                          overlapped=point.overlapped)
        return self._runs[key]

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
