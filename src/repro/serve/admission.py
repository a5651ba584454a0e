"""Admission control: quote, degrade, or shed — decided before queueing.

Every submission is priced with the :mod:`repro.tune` cost model
(:func:`~repro.tune.admission.quote_job`, memoised per device type x
grid x mode) before it may enter the queue.  The controller's estimate
of a job's completion time is::

    wait      = backlog_seconds / len(dispatchable lanes)
    service   = best quote across dispatchable device types
    retries   = RetryPolicy.total_delay(max_attempts - 1)   # closed form
    estimate  = wait + service + retries

and the decision ladder, in order:

1. **No dispatchable lane** -> typed
   :class:`~repro.serve.errors.AdmissionError` (the fleet may recover
   later; *this* submission is honestly refused now).
2. **Queue at hard cap** -> :class:`~repro.serve.errors.OverloadError`.
3. **Backlog over budget** -> degrade ``exact`` -> ``functional`` when the
   tenant allows it; shed ``exact`` jobs that forbid degradation with
   :class:`~repro.serve.errors.OverloadError`; ``functional`` jobs squeeze in
   until the hard cap.
4. **Deadline infeasible at the requested tier** -> retry the estimate
   at the degraded tier (if allowed); still infeasible -> typed
   :class:`~repro.serve.errors.AdmissionError`.

Rejected jobs never queue, so an admitted job's deadline was feasible
*at admission* — later misses are fault-induced and surface as
:class:`~repro.serve.errors.DeadlineExceededError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.serve.errors import AdmissionError, OverloadError
from repro.serve.fleet import DeviceLane, Fleet
from repro.serve.job import JobSpec
from repro.tune.admission import JobQuote, quote_job

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller promised for one admitted job."""

    mode_served: str
    degraded: bool
    quote: JobQuote
    #: completion-time estimate (wait + service + retry budget).
    estimate_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode_served": self.mode_served,
            "degraded": self.degraded,
            "quote": self.quote.to_dict(),
            "estimate_seconds": self.estimate_seconds,
        }


class AdmissionController:
    """Prices submissions against the fleet and the retry budget."""

    def __init__(self, fleet: Fleet, *, retry: RetryPolicy,
                 max_queue_depth: int = 64,
                 overload_backlog_seconds: float = 0.05) -> None:
        if max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if overload_backlog_seconds <= 0:
            raise ConfigurationError(
                "overload_backlog_seconds must be positive, "
                f"got {overload_backlog_seconds}"
            )
        self.fleet = fleet
        self.retry = retry
        self.max_queue_depth = max_queue_depth
        self.overload_backlog_seconds = overload_backlog_seconds
        self._quotes: dict[tuple[str, tuple[int, int, int], str, str | None],
                           JobQuote] = {}
        self.admitted = 0
        self.degraded = 0
        self.shed = 0
        self.rejected = 0

    # -- pricing ------------------------------------------------------------

    def quote_for(self, device: Any, spec: JobSpec,
                  mode: str) -> JobQuote:
        """Memoised fault-free quote for one device type x job shape.

        Scenario jobs key (and price) separately: the scenario's
        operation intensity stretches kernel-busy time.
        """
        key = (device.name, spec.dims(), mode, spec.scenario)
        quote = self._quotes.get(key)
        if quote is None:
            quote = quote_job(device, spec.grid(), mode=mode,
                              flops_scale=spec.flops_scale())
            self._quotes[key] = quote
        return quote

    def best_quote(self, spec: JobSpec, mode: str,
                   lanes: list[DeviceLane]) -> JobQuote:
        """Cheapest quote across the dispatchable lanes' device types."""
        seen: dict[str, Any] = {}
        for lane in lanes:
            seen.setdefault(lane.device.name, lane.device)
        return min(
            (self.quote_for(device, spec, mode)
             for device in seen.values()),
            key=lambda quote: quote.service_seconds,
        )

    def retry_budget_seconds(self, spec: JobSpec) -> float:
        """Worst-case backoff the job's keyed retry stream can spend."""
        policy = self.retry.for_job(spec.job_id)
        return policy.total_delay(policy.max_attempts - 1)

    # -- the decision ladder ------------------------------------------------

    def decide(self, spec: JobSpec, *, now: float,
               backlog_seconds: float,
               queue_depth: int) -> AdmissionDecision:
        """Admit (possibly degraded) or raise a typed rejection."""
        lanes = self.fleet.dispatchable(now)
        if not lanes:
            self.rejected += 1
            raise AdmissionError(
                f"job {spec.job_id}: no dispatchable device lane "
                f"(all lost or breaker-open) at t={now:.6f}"
            )
        if queue_depth >= self.max_queue_depth:
            self.shed += 1
            raise OverloadError(
                f"job {spec.job_id}: queue at hard cap "
                f"({queue_depth}/{self.max_queue_depth})"
            )

        mode = spec.mode
        degraded = False
        if backlog_seconds > self.overload_backlog_seconds:
            if spec.mode == "exact":
                if spec.allow_degrade:
                    mode, degraded = "functional", True
                else:
                    self.shed += 1
                    raise OverloadError(
                        f"job {spec.job_id}: backlog "
                        f"{backlog_seconds * 1e3:.2f} ms over budget "
                        f"{self.overload_backlog_seconds * 1e3:.2f} ms and "
                        "tenant forbids exact->functional degradation"
                    )

        wait = backlog_seconds / len(lanes)
        retries = self.retry_budget_seconds(spec)

        quote = self.best_quote(spec, mode, lanes)
        estimate = wait + quote.service_seconds + retries
        if (spec.deadline_seconds is not None
                and estimate > spec.deadline_seconds):
            # One rung left on the ladder: try the degraded tier.
            if mode == "exact" and spec.allow_degrade:
                quote = self.best_quote(spec, "functional", lanes)
                estimate = wait + quote.service_seconds + retries
                mode, degraded = "functional", True
            if estimate > spec.deadline_seconds:
                self.rejected += 1
                raise AdmissionError(
                    f"job {spec.job_id}: deadline "
                    f"{spec.deadline_seconds * 1e3:.2f} ms infeasible — "
                    f"estimate {estimate * 1e3:.2f} ms (wait "
                    f"{wait * 1e3:.2f} + service "
                    f"{quote.service_seconds * 1e3:.2f} + retry budget "
                    f"{retries * 1e3:.2f})"
                )

        self.admitted += 1
        if degraded:
            self.degraded += 1
        return AdmissionDecision(mode_served=mode, degraded=degraded,
                                 quote=quote, estimate_seconds=estimate)

    def to_dict(self) -> dict[str, Any]:
        return {
            "admitted": self.admitted,
            "degraded": self.degraded,
            "shed": self.shed,
            "rejected": self.rejected,
            "max_queue_depth": self.max_queue_depth,
            "overload_backlog_seconds": self.overload_backlog_seconds,
        }
