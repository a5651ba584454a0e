"""Typed error taxonomy of the serving layer.

Every failure mode a tenant can observe is a distinct class, all rooted
at :class:`ServeError` (itself a :class:`~repro.errors.ReproError`), so
the fleet extends PR 3's invariant verbatim: an admitted job either
completes **bit-identical** to its fault-free run or raises one of these
types within its watchdog budget — never a hang, never a silent wrong
answer.

========================  ====================================================
error                     raised when
========================  ====================================================
AdmissionError            the fleet cannot meet the job's deadline (or has
                          no healthy lane) — rejected before queueing
OverloadError             admission shed the job under overload and the
                          tenant forbade the exact->functional downgrade
DeadlineExceededError     an admitted job missed its deadline (stale in the
                          queue, or the service watchdog fired mid-run)
FleetDownError            every device lane is permanently lost; queued and
                          future jobs cannot complete
ReshardExhaustedError     a job was resharded off dying devices more times
                          than the scheduler's reshard budget allows
SchedulerStallError       the virtual-time executor found no runnable task
                          and no pending timer — a scheduler bug surfaced as
                          a typed error instead of a hang
========================  ====================================================

Fault-plane errors (:class:`~repro.errors.RetryExhaustedError`,
:class:`~repro.errors.WatchdogTimeout`, ...) propagate unchanged when a
lane burns its transfer-retry budget, so callers keep the precise
failure mode.
"""

from __future__ import annotations

from repro.errors import FaultError, ReproError

__all__ = [
    "ServeError",
    "AdmissionError",
    "OverloadError",
    "DeadlineExceededError",
    "FleetDownError",
    "ReshardExhaustedError",
    "SchedulerStallError",
]


class ServeError(ReproError):
    """Base class for fleet-scheduler failures."""


class AdmissionError(ServeError):
    """The job was rejected at the front door (infeasible deadline,
    no healthy device lane, malformed request)."""


class OverloadError(AdmissionError):
    """The job was shed under overload: the backlog breached the
    admission controller's budget and the tenant's policy forbade the
    exact->functional downgrade (or the queue hit its hard cap)."""


class DeadlineExceededError(ServeError, FaultError):
    """An admitted job blew its deadline.

    Also a :class:`~repro.errors.FaultError`: deadline enforcement is
    the fleet's per-job watchdog, and resilience-layer callers that
    catch the fault family must see it.
    """


class FleetDownError(ServeError, FaultError):
    """Every device lane is permanently lost; the job cannot complete
    on any survivor."""


class ReshardExhaustedError(ServeError, FaultError):
    """A job was resharded more times than the scheduler's budget
    allows (devices kept dying under it); giving up is the typed
    alternative to a reshard livelock."""


class SchedulerStallError(ServeError):
    """The virtual-time executor stalled: no task is runnable and no
    timer is pending.  Indicates a scheduler defect; raising it is what
    keeps the 'never a hang' half of the invariant honest."""
