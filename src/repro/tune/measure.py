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

from repro.analyze.kernel import static_kernel_cycles
from repro.core.grid import Grid
from repro.core.wind import random_wind
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
    #: Proved cycle bound from the static verifier on the proxy config.
    static_cycles: int = 0
    #: |static - measured| / measured — asserted tiny in the tests: the
    #: static bound is a proof about the control machine, so any gap is
    #: data-path behaviour the unit-rate abstraction cannot see.
    static_error: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point.to_dict(),
            "key": self.point.key(),
            "proxy_cells": self.proxy_cells,
            "analytic_cycles": self.analytic_cycles,
            "measured_cycles": self.measured_cycles,
            "relative_error": _rounded(self.relative_error),
            "measured_seconds": _rounded(self.measured_seconds),
            "static_cycles": self.static_cycles,
            "static_error": _rounded(self.static_error),
        }


def proxy_grid(grid: Grid, point: TunePoint) -> Grid:
    """A small grid preserving the candidate's chunk-seam pattern."""
    ny = min(grid.ny, max(_PROXY_NY, min(grid.ny, 3 * point.chunk_width)))
    return Grid(nx=min(grid.nx, _PROXY_NX), ny=ny,
                nz=min(grid.nz, _PROXY_NZ))


def measure_one(evaluation: Evaluation, grid: Grid, *, seed: int,
                clock_hz: float) -> MeasuredResult:
    """Simulate one candidate on its proxy grid (batched exact mode)."""
    point = evaluation.point
    proxy = proxy_grid(grid, point)
    config = point.config(proxy)
    fields = random_wind(proxy, seed=seed)
    result = simulate_kernel(config, fields, mode="exact", batched=True)
    analytic = KernelCycleModel(config).cycles()
    static = static_kernel_cycles(config)
    measured = result.total_cycles
    error = (abs(analytic - measured) / measured) if measured else float("inf")
    static_error = (abs(static - measured) / measured) if measured \
        else float("inf")
    return MeasuredResult(
        point=point,
        proxy_cells=proxy.num_cells,
        analytic_cycles=analytic,
        measured_cycles=measured,
        relative_error=error,
        measured_seconds=result.runtime_seconds(clock_hz),
        static_cycles=static,
        static_error=static_error,
    )


def measure_candidates(candidates: list[Evaluation], grid: Grid, *,
                       seed: int) -> list[MeasuredResult]:
    """Measure each candidate (deterministic per-candidate seeds)."""
    out = []
    for rank, evaluation in enumerate(candidates):
        out.append(measure_one(
            evaluation, grid, seed=seed + rank,
            clock_hz=evaluation.clock_mhz * 1e6))
    return out
