"""Scenario model: a kernel, a grid family, boundaries, and batches.

A *scenario* is one member of the workload suite — the binding of

* a stencil kernel (:class:`ScenarioKernel`: PW advection, diffusion,
  buoyancy smoothing — all assembled from the repo's existing stage and
  shift-buffer parts),
* a grid family (:class:`GridFamily`: cubic, tall-column, flat — which
  turns the paper's quoted 62.875 ops/cycle into the *derived* quantity
  :func:`repro.constants.derived_ops_per_cycle` evaluated at that
  family's column height),
* a boundary-condition variant (periodic or open halos), and
* an optional multi-field batch (several independent field sets run
  back to back through one kernel).

Every scenario knows how to run itself through the cycle-accurate
engine in any execution mode, produce its NumPy reference, lint its
dataflow graph, prove it deadlock-free with the static analyzer, and
draw a deterministic fault plan — which is exactly the surface the
cross-mode conformance harness (:mod:`repro.scenarios.conformance`)
exercises for every registered entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro import constants
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.core.wind import (
    constant_wind,
    gravity_current,
    random_wind,
    shear_layer,
    taylor_green,
    thermal_bubble,
)
from repro.dataflow.engine import ControlRecord, RunStats
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.analyze.report import AnalysisReport
    from repro.dataflow.graph import DataflowGraph
    from repro.faults.plan import FaultPlan
    from repro.lint.diagnostics import LintReport

__all__ = [
    "OpModel",
    "GridFamily",
    "ScenarioKernel",
    "ScenarioResult",
    "Scenario",
    "WIND_GENERATORS",
]

#: Wind generator name -> callable(grid, seed); structured flows ignore
#: the seed (they are analytic), random draws use it.
WIND_GENERATORS: dict[str, Callable[[Grid, int], FieldSet]] = {
    "random": lambda grid, seed: random_wind(grid, seed=seed, magnitude=2.0),
    "constant": lambda grid, seed: constant_wind(grid),
    "shear-layer": lambda grid, seed: shear_layer(grid),
    "thermal-bubble": lambda grid, seed: thermal_bubble(grid),
    "gravity-current": lambda grid, seed: gravity_current(grid),
    "taylor-green": lambda grid, seed: taylor_green(grid),
}

#: Legal boundary-condition variants.
BOUNDARIES: tuple[str, ...] = ("periodic", "open")


@dataclass(frozen=True)
class OpModel:
    """A kernel's per-cell operation counts (paper convention).

    The advection kernel's model is 63/55 (section III); diffusion and
    buoyancy smoothing carry their own counts.  The theoretical
    ops/cycle of a scenario *derives* from this model and the grid
    family's column height — the paper's 62.875 is the advection model
    evaluated at the MONC default height of 64, not a constant.
    """

    ops_per_cell: int
    ops_per_top_cell: int

    def __post_init__(self) -> None:
        if self.ops_per_cell < 1 or self.ops_per_top_cell < 1:
            raise ConfigurationError(
                f"operation counts must be >= 1, got "
                f"{self.ops_per_cell}/{self.ops_per_top_cell}"
            )

    def ops_per_cycle(self, column_height: int) -> float:
        """Theoretical per-cycle issue at one column height."""
        return constants.derived_ops_per_cycle(
            column_height, ops_per_cell=self.ops_per_cell,
            ops_per_top_cell=self.ops_per_top_cell)

    def column_flops(self, nz: int) -> int:
        """Operations charged to one column (paper convention)."""
        if nz < 2:
            raise ConfigurationError(
                f"column height must be >= 2, got {nz}")
        return (nz - 1) * self.ops_per_cell + self.ops_per_top_cell

    def grid_flops(self, grid: Grid) -> int:
        """Operations charged to one kernel invocation over ``grid``."""
        return grid.num_columns * self.column_flops(grid.nz)

    @property
    def flops_scale(self) -> float:
        """Operation intensity relative to the advection kernel.

        The tuner's cost model prices the advection kernel; a scenario
        re-scales its GFLOPS axes by this ratio (cells stream at the
        same one-per-cycle rate regardless of the per-cell op count).
        """
        return self.ops_per_cell / constants.OPS_PER_CELL

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops_per_cell": self.ops_per_cell,
            "ops_per_top_cell": self.ops_per_top_cell,
        }


@dataclass(frozen=True)
class GridFamily:
    """A named family of grid shapes a scenario is defined over.

    ``default`` is the shape the CLI runs; ``small`` is the shape the
    conformance harness uses (forced-scalar execution prices every
    cell, so conformance grids stay tiny); ``bounds`` are the inclusive
    per-axis ranges property tests draw random shapes from.
    """

    name: str
    default: tuple[int, int, int]
    small: tuple[int, int, int]
    bounds: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        for shape in (self.default, self.small):
            if len(shape) != 3 or any(dim < 1 for dim in shape):
                raise ConfigurationError(
                    f"grid family {self.name!r}: bad shape {shape}")
            if shape[2] < 3:
                raise ConfigurationError(
                    f"grid family {self.name!r}: nz must be >= 3 for the "
                    f"vertical stencils, got {shape[2]}")
        for axis, (lo, hi) in zip("xyz", self.bounds):
            if lo > hi or lo < 1 or (axis == "z" and lo < 3):
                raise ConfigurationError(
                    f"grid family {self.name!r}: bad {axis} bounds "
                    f"({lo}, {hi})")
        # The conformance harness runs the small shape forced-scalar, so
        # it must fall inside the (deliberately tiny) draw bounds; the
        # CLI default may exceed them.
        if not all(lo <= dim <= hi for (lo, hi), dim in
                   zip(self.bounds, self.small)):
            raise ConfigurationError(
                f"grid family {self.name!r}: small shape {self.small} "
                f"outside bounds {self.bounds}")

    def default_grid(self) -> Grid:
        return Grid(nx=self.default[0], ny=self.default[1],
                    nz=self.default[2])

    def small_grid(self) -> Grid:
        return Grid(nx=self.small[0], ny=self.small[1], nz=self.small[2])

    def contains(self, grid: Grid) -> bool:
        """True when ``grid`` falls inside this family's bounds."""
        return all(lo <= dim <= hi for (lo, hi), dim in
                   zip(self.bounds, (grid.nx, grid.ny, grid.nz)))

    @property
    def column_height(self) -> int:
        """The default shape's column height (the ops/cycle input)."""
        return self.default[2]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "default": list(self.default),
            "small": list(self.small),
            "bounds": [list(pair) for pair in self.bounds],
        }


class ScenarioKernel:
    """One stencil kernel the scenario suite can bind to a grid family.

    Concrete kernels (:mod:`repro.scenarios.kernels`) wrap the repo's
    existing execution paths — ``simulate_kernel`` for PW advection,
    ``run_stencil_kernel`` over shift-buffer windows for diffusion and
    buoyancy — behind one uniform surface the conformance harness and
    the CLI drive.  Every kernel's control depends on the streaming
    position only, so each one runs batched windows.
    """

    #: Kernel kind tag ("advection", "diffusion", "buoyancy").
    kind: str = ""
    #: Per-cell operation model (drives derived ops/cycle and GFLOPS).
    op_model: OpModel

    def reference(self, fields: FieldSet) -> SourceSet:
        """The NumPy reference result for one field set."""
        raise NotImplementedError

    def run(self, fields: FieldSet, *, mode: str = "exact",
            batched: bool = True,
            fault_plan: "FaultPlan | None" = None,
            record: ControlRecord | None = None,
            ) -> tuple[SourceSet, RunStats, int]:
        """One cycle-accurate kernel pass.

        Returns ``(sources, merged stats, total cycles)``.  Faulted
        runs either recover bit-identically (kernels with
        checkpoint/restart) or raise the typed error the engine
        surfaces — the conformance harness accepts both, as long as
        scalar and batched execution agree exactly.  ``record`` is the
        caller's :class:`~repro.dataflow.engine.ControlRecord`, shared
        by every engine run of the pass; a kernel scopes its own when
        it is ``None``.
        """
        raise NotImplementedError

    def structural_graph(self, grid: Grid) -> "DataflowGraph":
        """The graph the kernel's builder wires, on zero data, for lint
        and static analysis."""
        raise NotImplementedError

    def fault_specs(self) -> tuple:
        """The fault specs this kernel's conformance fault leg injects."""
        raise NotImplementedError

    def lint(self, grid: Grid) -> "LintReport":
        """Static diagnostics over this kernel's graph (and config)."""
        from repro.lint.runner import lint_graph

        return lint_graph(self.structural_graph(grid))

    def analyze(self, grid: Grid) -> "AnalysisReport":
        """Static dataflow proof (deadlock freedom, rate, depths)."""
        from repro.analyze import analyze_graph

        return analyze_graph(self.structural_graph(grid))


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: per-batch outputs plus engine stats."""

    scenario: str
    grid: Grid
    batches: tuple[SourceSet, ...]
    stats: RunStats
    total_cycles: int

    @property
    def sources(self) -> SourceSet:
        """The first (often only) batch's output."""
        return self.batches[0]

    @property
    def cells_per_cycle(self) -> float:
        cells = len(self.batches) * self.grid.num_cells
        return cells / self.total_cycles if self.total_cycles else 0.0


@dataclass(frozen=True)
class Scenario:
    """One registered workload: kernel x grid family x boundary x batch."""

    name: str
    title: str
    description: str
    kernel: ScenarioKernel
    grids: GridFamily
    boundary: str = "periodic"
    wind: str = "random"
    batch: int = 1
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ConfigurationError(
                f"scenario name must be non-empty and spaceless, got "
                f"{self.name!r}")
        if self.boundary not in BOUNDARIES:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown boundary "
                f"{self.boundary!r}; legal: {BOUNDARIES}")
        if self.wind not in WIND_GENERATORS:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown wind generator "
                f"{self.wind!r}; legal: {sorted(WIND_GENERATORS)}")
        if self.batch < 1:
            raise ConfigurationError(
                f"scenario {self.name!r}: batch must be >= 1, got "
                f"{self.batch}")

    # -- inputs ---------------------------------------------------------------

    def default_grid(self) -> Grid:
        return self.grids.default_grid()

    def small_grid(self) -> Grid:
        return self.grids.small_grid()

    def make_fields(self, grid: Grid | None = None, *, seed: int = 0,
                    batch_index: int = 0) -> FieldSet:
        """One batch's input field set, boundary variant applied.

        Batches differ by seed offset so a multi-field scenario streams
        genuinely distinct data.  The open-boundary variant rebuilds
        the set with zeroed halos (``FieldSet.from_interior`` with
        ``periodic=False``) — same interior, different stencil inputs
        at the domain edge.
        """
        if grid is None:
            grid = self.default_grid()
        fields = WIND_GENERATORS[self.wind](grid, seed + batch_index)
        if self.boundary == "open":
            fields = FieldSet.from_interior(
                grid,
                fields.interior("u").copy(),
                fields.interior("v").copy(),
                fields.interior("w").copy(),
                periodic=False,
            )
        return fields

    # -- execution -------------------------------------------------------------

    def run(self, grid: Grid | None = None, *, seed: int = 0,
            mode: str = "exact", batched: bool = True,
            fault_plan: "FaultPlan | None" = None) -> ScenarioResult:
        """Run every batch through the cycle-accurate engine."""
        if grid is None:
            grid = self.default_grid()
        outputs: list[SourceSet] = []
        all_stats: list[RunStats] = []
        total_cycles = 0
        # Every batch runs one machine: later batches replay the first.
        record = ControlRecord()
        for index in range(self.batch):
            fields = self.make_fields(grid, seed=seed, batch_index=index)
            sources, stats, cycles = self.kernel.run(
                fields, mode=mode, batched=batched, fault_plan=fault_plan,
                record=record)
            outputs.append(sources)
            all_stats.append(stats)
            total_cycles += cycles
        return ScenarioResult(
            scenario=self.name, grid=grid, batches=tuple(outputs),
            stats=RunStats.merge(all_stats), total_cycles=total_cycles)

    def reference(self, grid: Grid | None = None, *, seed: int = 0,
                  ) -> tuple[SourceSet, ...]:
        """Per-batch NumPy reference results."""
        if grid is None:
            grid = self.default_grid()
        return tuple(
            self.kernel.reference(
                self.make_fields(grid, seed=seed, batch_index=index))
            for index in range(self.batch)
        )

    # -- static surfaces -------------------------------------------------------

    def lint(self, grid: Grid | None = None) -> "LintReport":
        return self.kernel.lint(grid or self.default_grid())

    def analyze(self, grid: Grid | None = None) -> "AnalysisReport":
        return self.kernel.analyze(grid or self.default_grid())

    def fault_plan(self, seed: int = 0) -> "FaultPlan":
        """A fresh deterministic fault plan for this scenario's kernel.

        Plans are stateful (occurrence counters advance), so every
        conformance leg builds its own from the same seed and compares
        :meth:`~repro.faults.plan.FaultPlan.trace_key` afterwards.
        """
        from repro.faults.plan import FaultPlan

        return FaultPlan(self.kernel.fault_specs(), seed=seed)

    # -- derived quantities ----------------------------------------------------

    @property
    def ops_per_cycle(self) -> float:
        """Theoretical ops/cycle at this scenario's default column height."""
        return self.kernel.op_model.ops_per_cycle(self.grids.column_height)

    @property
    def flops_scale(self) -> float:
        return self.kernel.op_model.flops_scale

    def grid_flops(self, grid: Grid | None = None) -> int:
        """Operations one batch is charged on ``grid`` (paper convention)."""
        return self.kernel.op_model.grid_flops(grid or self.default_grid())

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "kind": self.kernel.kind,
            "boundary": self.boundary,
            "wind": self.wind,
            "batch": self.batch,
            "tags": list(self.tags),
            "op_model": self.kernel.op_model.to_dict(),
            "ops_per_cycle": self.ops_per_cycle,
            "grid_family": self.grids.to_dict(),
        }
