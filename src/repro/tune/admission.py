"""Admission pricing: one (device, grid, mode) -> one :class:`JobQuote`.

The serving layer (:mod:`repro.serve`) must decide *before* queueing a
job whether the fleet can meet its deadline, and it must make that call
with the same models the autotuner trusts — the device invocation model
and the discrete-event host schedule — so an admitted job's quoted
service time is exactly what the lane will later bill for it
(fault-free).  This module is that hook: a pure function from a device
model, a grid and a service mode to modelled seconds, built on
:class:`~repro.runtime.session.AdvectionSession` chunking and the
Fig. 6 overlapped schedule.  The fleet's lanes bill through the same
private pricer, so the quote and the bill are one computation.

Service modes
-------------
``functional``
    The production path: chunked functional execution, results-only
    readback.
``exact``
    The audit path: the run additionally streams cycle-level telemetry
    (per-stage fires/stalls, batched-window boundaries) back with the
    sources.  Following the paper's own finding that data movement
    dominates end-to-end time, exact mode is priced as a larger D2H
    payload (:data:`EXACT_TELEMETRY_OUT_SCALE` x the result bytes)
    rather than as an opaque latency constant — which is also why the
    overload ladder's exact->functional downgrade buys real headroom: it
    sheds transfer bytes, the scarce resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.grid import Grid
from repro.errors import ConfigurationError, TuneError
from repro.hardware.cpu import CPUModel
from repro.kernel.config import KernelConfig
from repro.runtime.session import AdvectionSession

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy

__all__ = ["JobQuote", "quote_job", "serve_session", "serve_config",
           "out_scale_for_mode", "EXACT_TELEMETRY_OUT_SCALE", "SERVE_MODES",
           "SERVE_X_CHUNKS"]

#: D2H payload multiplier of exact mode (sources + cycle telemetry).
EXACT_TELEMETRY_OUT_SCALE: float = 2.0

#: Service modes the fleet offers, cheapest first (the degradation
#: ladder walks right-to-left: exact downgrades to functional).
SERVE_MODES: tuple[str, ...] = ("functional", "exact")

#: X chunks per job schedule: small jobs still overlap transfer/compute.
SERVE_X_CHUNKS: int = 8


def out_scale_for_mode(mode: str) -> float:
    """D2H byte multiplier for one service mode."""
    if mode not in SERVE_MODES:
        raise ConfigurationError(
            f"unknown service mode {mode!r}; known: {list(SERVE_MODES)}"
        )
    return EXACT_TELEMETRY_OUT_SCALE if mode == "exact" else 1.0


def serve_config(grid: Grid) -> KernelConfig:
    """Device-independent kernel configuration of one serving-layer job.

    Shared by quotes, lane schedules *and* the numeric compute path, so
    a job's result bytes are a function of its input alone — the
    property that makes resharding trivially bit-identical.
    """
    return KernelConfig(grid=grid, chunk_width=max(2, grid.ny // 3))


def serve_session(device: Any, grid: Grid) -> AdvectionSession:
    """The session every serving-layer price and schedule derives from.

    One constructor so the admission quote, the lane's live schedule and
    the benchmark all chunk identically, at :data:`SERVE_X_CHUNKS` — a
    quote that chunked differently from the lane would misprice
    deadlines.
    """
    return AdvectionSession(device, serve_config(grid),
                            x_chunks=SERVE_X_CHUNKS)


@dataclass(frozen=True)
class JobQuote:
    """Fault-free modelled cost of one job on one device."""

    device: str
    mode: str
    #: end-to-end modelled seconds (schedule makespan + device setup).
    service_seconds: float
    #: seconds the PCIe engines are busy (the data-movement share).
    transfer_seconds: float
    #: seconds the kernel banks are busy.
    kernel_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "mode": self.mode,
            "service_seconds": self.service_seconds,
            "transfer_seconds": self.transfer_seconds,
            "kernel_seconds": self.kernel_seconds,
        }


def quote_job(device: Any, grid: Grid, *, mode: str = "functional",
              flops_scale: float = 1.0) -> JobQuote:
    """Price one job on one device model, fault-free.

    CPU baselines run host-resident (no transfers); accelerator quotes
    simulate the overlapped schedule the lane will actually execute —
    the lane bills through the same pricer, so quote and bill agree to
    the bit.  ``flops_scale`` is the served kernel's operation intensity
    relative to advection (scenario jobs pass ``scenario.flops_scale``):
    kernel-busy time stretches by it, transfer time does not — data
    movement is per-cell, not per-op.
    """
    if mode not in SERVE_MODES:
        raise TuneError(
            f"unknown service mode {mode!r}; known: {list(SERVE_MODES)}"
        )
    if not flops_scale > 0:
        raise TuneError(f"flops_scale must be > 0, got {flops_scale}")
    quote, _ = _price_job(serve_session(device, grid), grid, mode,
                          flops_scale)
    return quote


def _price_job(session: AdvectionSession, grid: Grid, mode: str,
               flops_scale: float, *, name_prefix: str = "",
               fault_plan: "FaultPlan | None" = None,
               retry: "RetryPolicy | None" = None,
               watchdog_seconds: float | None = None,
               ) -> tuple[JobQuote, int]:
    """The one serve price: (quote, transfer redrives performed).

    :func:`quote_job` calls it fault-free; a fleet lane calls it with its
    command-name prefix and the run's fault plan, retry policy and
    watchdog, whose typed errors propagate to the scheduler.
    """
    device = session.device
    if isinstance(device, CPUModel):
        # Host-resident: the whole service time is kernel time.
        seconds = device.kernel_time(grid) * flops_scale
        return JobQuote(device=device.name, mode=mode,
                        service_seconds=seconds, transfer_seconds=0.0,
                        kernel_seconds=seconds), 0
    schedule = session.schedule(
        grid, overlapped=True, out_scale=out_scale_for_mode(mode),
        name_prefix=name_prefix, fault_plan=fault_plan, retry=retry,
        watchdog_seconds=watchdog_seconds,
    )
    kernel_busy = sum(seconds for resource, seconds in schedule.busy.items()
                      if resource.startswith("kernel"))
    transfer_busy = sum(seconds for resource, seconds in schedule.busy.items()
                        if resource.startswith("pcie"))
    setup = getattr(device, "setup_seconds", 0.0)
    return JobQuote(device=device.name, mode=mode,
                    service_seconds=(schedule.makespan + setup
                                     + kernel_busy * (flops_scale - 1.0)),
                    transfer_seconds=transfer_busy,
                    kernel_seconds=kernel_busy * flops_scale,
                    ), len(schedule.retries)
