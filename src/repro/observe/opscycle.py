"""Achieved ops-per-cycle accounting against the paper's theoretical peak.

Section III derives the design's theoretical performance from operations
issued per cycle: 63 for an interior cell, 55 at the column top, an
average of 62.875 at the MONC default column height of 64.  "Quantifying
how far kernels fall short of this figure can determine how much more
opportunity there is for further kernel level optimisation" — this module
does that quantification from the *measured* engine statistics: floating
point work is counted from the advect stages' fire counters (not assumed
from the grid), divided by the measured cycle count, and compared to
:func:`repro.constants.average_ops_per_cycle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro import constants
from repro.dataflow.engine import RunStats
from repro.errors import ConfigurationError

__all__ = ["OpsPerCycleReport", "check_clock_mhz", "flops_from_stats",
           "ops_per_cycle_report"]


def flops_from_stats(stats: RunStats, nz: int) -> int:
    """Floating point operations evidenced by measured advect fire counts.

    Every firing of an advect stage is one cell's worth of that field's
    update: 21 operations, minus 4 for the U and V stages at the column
    top.  One emission per column is a top emission (columns stream
    ``nz - 1`` output cells), so top counts follow from the fire counters
    alone — no reference to the grid that produced them.
    """
    if nz < 2:
        raise ConfigurationError(f"column height must be >= 2, got {nz}")
    total = 0
    found = False
    for name, fires in stats.fires.items():
        base = name.rsplit(".", 1)[-1]  # strip multi-kernel "k0." prefixes
        if not base.startswith("advect_"):
            continue
        field = base[len("advect_"):]
        if field not in ("u", "v", "w"):
            continue
        found = True
        if fires % (nz - 1):
            raise ConfigurationError(
                f"stage {name!r} fired {fires} times, not a multiple of "
                f"the {nz - 1} emissions per column — wrong nz?"
            )
        columns = fires // (nz - 1)
        ops = fires * constants.OPS_PER_FIELD
        if field in ("u", "v"):
            ops -= columns * constants.OPS_TOP_SAVING_PER_FIELD
        total += ops
    if not found:
        raise ConfigurationError(
            "no advect stage fires in these stats; was the graph built by "
            "build_advection_graph?"
        )
    return total


def check_clock_mhz(clock_mhz: float) -> None:
    """Reject a kernel clock that is not a positive, finite MHz value."""
    if not clock_mhz > 0:
        raise ConfigurationError(f"clock must be positive, got {clock_mhz}")
    if not math.isfinite(clock_mhz):
        raise ConfigurationError(f"clock must be finite, got {clock_mhz}")


@dataclass(frozen=True)
class OpsPerCycleReport:
    """Measured vs theoretical per-cycle operation issue.

    The theoretical peak is *derived* from the column height and the
    kernel's per-cell operation model via
    :func:`repro.constants.derived_ops_per_cycle`; the defaults are the
    advection kernel's 63/55 counts, which give the paper's 62.875 at
    the MONC default height of 64.  Scenario kernels (diffusion,
    buoyancy smoothing) pass their own operation models.
    """

    cycles: int
    flops: int
    column_height: int
    num_kernels: int = 1
    ops_per_cell: int = constants.OPS_PER_CELL
    ops_per_top_cell: int = constants.OPS_PER_TOP_CELL

    @property
    def achieved_ops_per_cycle(self) -> float:
        return self.flops / self.cycles if self.cycles else 0.0

    @property
    def theoretical_ops_per_cycle(self) -> float:
        """The derived peak (the paper's 62.875 with advection defaults)."""
        return self.num_kernels * constants.derived_ops_per_cycle(
            self.column_height, ops_per_cell=self.ops_per_cell,
            ops_per_top_cell=self.ops_per_top_cell)

    @property
    def percent_of_theoretical(self) -> float:
        return 100.0 * self.achieved_ops_per_cycle \
            / self.theoretical_ops_per_cycle

    def achieved_gflops(self, clock_mhz: float) -> float:
        """Achieved rate at a kernel clock (cycles become wall time)."""
        check_clock_mhz(clock_mhz)
        return self.achieved_ops_per_cycle * clock_mhz * 1e6 / 1e9

    def to_dict(self) -> dict[str, Any]:
        return {
            "cycles": self.cycles,
            "flops": self.flops,
            "column_height": self.column_height,
            "num_kernels": self.num_kernels,
            "ops_per_cell": self.ops_per_cell,
            "ops_per_top_cell": self.ops_per_top_cell,
            "achieved_ops_per_cycle": round(self.achieved_ops_per_cycle, 4),
            "theoretical_ops_per_cycle": self.theoretical_ops_per_cycle,
            "percent_of_theoretical": round(self.percent_of_theoretical, 2),
        }

    def summary(self) -> str:
        return (
            f"ops/cycle: {self.achieved_ops_per_cycle:.3f} achieved vs "
            f"{self.theoretical_ops_per_cycle:.3f} theoretical "
            f"({self.percent_of_theoretical:.1f}%) over {self.cycles} "
            f"cycles, {self.flops} flops"
        )


def ops_per_cycle_report(stats: RunStats, *, nz: int, cycles: int | None = None,
                         num_kernels: int = 1,
                         ops_per_cell: int = constants.OPS_PER_CELL,
                         ops_per_top_cell: int = constants.OPS_PER_TOP_CELL,
                         flops: int | None = None) -> OpsPerCycleReport:
    """Build the report from one (possibly merged) engine run.

    ``cycles`` defaults to ``stats.cycles`` — pass the end-to-end cycle
    count explicitly when chunks overlap (multi-kernel co-simulation
    merges per-replica stats whose cycles would otherwise double-count).
    ``flops`` defaults to the advect-stage fire-count accounting; pass
    an explicit total (together with the matching
    ``ops_per_cell``/``ops_per_top_cell`` model) for non-advection
    scenario kernels whose stats carry no advect stages.
    """
    return OpsPerCycleReport(
        cycles=stats.cycles if cycles is None else cycles,
        flops=flops_from_stats(stats, nz) if flops is None else flops,
        column_height=nz,
        num_kernels=num_kernels,
        ops_per_cell=ops_per_cell,
        ops_per_top_cell=ops_per_top_cell,
    )
