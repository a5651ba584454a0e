"""Measured refinement: re-score top analytic candidates by simulation.

The analytic tier prices a candidate with the closed-form
:class:`~repro.kernel.cycle_model.KernelCycleModel`.  This tier replays
the top-K candidates through the cycle-accurate engine's batched exact
mode (``DataflowEngine(mode="exact", batched=True)`` under
:func:`~repro.kernel.simulate.simulate_kernel`) and records the
analytic-versus-measured cycle error, so a tuning report carries its own
error bars — if a model change ever breaks the closed form, the tuner
is the first place it shows.  Batched exact reports the bit-exact
stall/stats profile, not just matching cycle counts.

Simulation cost scales with cells, so candidates are measured on a
*proxy grid*: the tuned chunk geometry is preserved exactly (NY is never
shrunk below what exercises the seam pattern) while NX is capped —
the cycle model is linear in NX, so the relative error transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import ControlRecord
from repro.kernel.cycle_model import KernelCycleModel
from repro.kernel.simulate import simulate_kernel
from repro.tune.cost import Evaluation, _rounded
from repro.tune.space import TunePoint

__all__ = ["MeasuredResult", "measure_candidates"]

#: NX cap of the proxy grid (the cycle model is linear in NX).
_PROXY_NX: int = 8

#: NY cap: keep at least two seams when the tuned chunking has them.
_PROXY_NY: int = 96

#: NZ cap (column height drives the fill fraction; 32 keeps it honest).
_PROXY_NZ: int = 32


@dataclass(frozen=True)
class MeasuredResult:
    """Analytic-vs-simulated comparison for one candidate."""

    point: TunePoint
    proxy_cells: int
    analytic_cycles: int
    measured_cycles: int
    relative_error: float
    measured_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point.to_dict(),
            "key": self.point.key(),
            "proxy_cells": self.proxy_cells,
            "analytic_cycles": self.analytic_cycles,
            "measured_cycles": self.measured_cycles,
            "relative_error": _rounded(self.relative_error),
            "measured_seconds": _rounded(self.measured_seconds),
        }


def proxy_grid(grid: Grid, point: TunePoint) -> Grid:
    """A small grid preserving the candidate's chunk-seam pattern."""
    ny = min(grid.ny, max(_PROXY_NY, min(grid.ny, 3 * point.chunk_width)))
    return Grid(nx=min(grid.nx, _PROXY_NX), ny=ny,
                nz=min(grid.nz, _PROXY_NZ))


def _measure(evaluation: Evaluation, grid: Grid, seed: int,
             record: ControlRecord) -> MeasuredResult:
    """One candidate's run; its fields and sources die with the call."""
    point = evaluation.point
    proxy = proxy_grid(grid, point)
    config = point.config(proxy)
    fields = random_wind(proxy, seed=seed)
    result = simulate_kernel(config, fields, mode="exact", batched=True,
                             record=record)
    analytic = KernelCycleModel(config).cycles()
    measured = result.total_cycles
    error = (abs(analytic - measured) / measured) if measured else float("inf")
    return MeasuredResult(
        point=point,
        proxy_cells=proxy.num_cells,
        analytic_cycles=analytic,
        measured_cycles=measured,
        relative_error=error,
        measured_seconds=result.runtime_seconds(evaluation.clock_mhz * 1e6),
    )


def measure_candidates(candidates: list[Evaluation], grid: Grid, *,
                       seed: int) -> list[MeasuredResult]:
    """Simulate each candidate on its proxy grid (batched exact mode).

    Candidate ``rank`` draws its fields from seed ``seed + rank``.  The
    runs share one :class:`~repro.dataflow.engine.ControlRecord`, scoped
    to this call: a candidate whose chunk graphs share a structure with
    an earlier run replays that run's control on its own fields.  Cycles
    and sources are the same either way.
    """
    record = ControlRecord()
    return [_measure(evaluation, grid, seed + rank, record)
            for rank, evaluation in enumerate(candidates)]
