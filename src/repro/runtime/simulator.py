"""Discrete-event execution of a command queue.

List scheduling over serial resources: a command starts at the latest of
(a) its resource becoming free and (b) all awaited events completing.
Commands on one resource keep their enqueue order (in-order engines); the
makespan and per-resource busy times fall out, which is all the
performance figures of Figs. 5 and 6 need.

With a :class:`~repro.faults.plan.FaultPlan`, ``transfer`` faults strike
PCIe commands as they execute: a *stall* adds its modelled seconds to the
transfer (a stall with ``seconds=None`` hangs — surfaced as a typed
:class:`~repro.errors.WatchdogTimeout`, never an actual hang); a *fail*
aborts the attempt, and the transfer is re-driven under the
:class:`~repro.faults.retry.RetryPolicy` (occupying the link for each
attempt plus the policy's backoff).  Without a policy a failed transfer
raises :class:`~repro.errors.TransferError` immediately; with one, budget
exhaustion raises :class:`~repro.errors.RetryExhaustedError` chained to
the last failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    RetryExhaustedError,
    ScheduleError,
    TransferError,
    WatchdogTimeout,
)
from repro.runtime.event import Command
from repro.runtime.queue import CommandQueue

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy

__all__ = ["ScheduleResult", "simulate_schedule"]


@dataclass
class ScheduleResult:
    """Timeline produced by simulating one command queue."""

    makespan: float
    #: resource -> total busy seconds.
    busy: dict[str, float] = field(default_factory=dict)
    #: (name, resource, start, end) per command, in completion order.
    timeline: list[tuple[str, str, float, float]] = field(default_factory=list)
    #: command name -> re-drives performed after injected transfer fails.
    retries: dict[str, int] = field(default_factory=dict)

    def utilisation(self, resource: str) -> float:
        """Busy fraction of one resource over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.busy.get(resource, 0.0) / self.makespan

    def overlap_seconds(self, resource_a: str, resource_b: str) -> float:
        """Seconds during which both resources were simultaneously busy."""
        spans_a = [(s, e) for _, r, s, e in self.timeline if r == resource_a]
        spans_b = [(s, e) for _, r, s, e in self.timeline if r == resource_b]
        total = 0.0
        for sa, ea in spans_a:
            for sb, eb in spans_b:
                total += max(0.0, min(ea, eb) - max(sa, sb))
        return total


def _transfer_occupancy(command: Command, fault_plan: "FaultPlan",
                        retry: "RetryPolicy | None") -> tuple[float, int]:
    """Seconds the link is occupied by ``command`` under injected faults.

    Returns ``(occupancy_seconds, redrives)``.  Each re-driven attempt is
    a fresh fault opportunity, so a persistent fail spec keeps striking
    until the budget is spent.
    """
    occupancy = command.duration
    failures = 0
    while True:
        spec = fault_plan.draw("transfer", command.name)
        if spec is None:
            return occupancy, failures
        if spec.kind == "stall":
            if spec.seconds is None:
                raise WatchdogTimeout(
                    f"transfer {command.name!r} stalled and never "
                    f"completed (injected hang); schedule watchdog fired"
                )
            occupancy += spec.seconds
            return occupancy, failures  # delayed, but this attempt lands
        error = TransferError(
            f"transfer {command.name!r} failed in flight (injected fault)"
        )
        if retry is None:
            raise error
        failures += 1
        if failures >= retry.max_attempts:
            raise RetryExhaustedError(
                f"transfer {command.name!r} failed after {failures} "
                f"attempts (last error: {error})"
            ) from error
        # The failed attempt occupied the link in full, then the policy
        # backs off before the re-drive.
        occupancy += command.duration + retry.delay(failures - 1)


def _stall_error(queue: CommandQueue,
                 pending: list[Command]) -> ScheduleError:
    """Why no command in ``pending`` can start.

    Each resource's first pending command must go next, and it waits on
    an incomplete event.  Following that event to its producer's
    resource, and on, ends at an event no queued command produces, or
    back at a command already visited: a cycle.
    """
    producers = {id(command.event): command for command in queue.commands}
    heads: dict[str, Command] = {}
    for command in pending:
        heads.setdefault(command.resource, command)
    visited: set[int] = set()
    command = pending[0]
    while command.uid not in visited:
        visited.add(command.uid)
        event = next(ev for ev in command.wait_for if not ev.complete)
        producer = producers.get(id(event))
        if producer is None:
            return ScheduleError(
                f"command {command.name!r} waits on event {event.name!r} "
                f"which no command in queue {queue.name!r} produces and "
                f"which is not complete — it would never become runnable")
        blocked, command = command, heads[producer.resource]
    return ScheduleError(
        f"dependency cycle would deadlock queue {queue.name!r}: command "
        f"{blocked.name!r} waits on event {event.name!r}, which completes "
        f"only after {blocked.name!r} starts")


def simulate_schedule(queue: CommandQueue, *,
                      fault_plan: "FaultPlan | None" = None,
                      retry: "RetryPolicy | None" = None,
                      watchdog_seconds: float | None = None,
                      ) -> ScheduleResult:
    """Execute every command in ``queue`` and return the timeline.

    Parameters
    ----------
    queue:
        The command queue.  When no pending command can start, the run
        raises a typed :class:`~repro.errors.ScheduleError` naming one
        blocked command and the event it waits on: an event no command
        in the queue produces (a phantom wait), or one that completes
        only after the blocked command starts (a dependency cycle, a
        deadlock).  Commands that ran before the stall keep their times
        and the faults they drew.
    fault_plan:
        Optional fault-injection plan; ``transfer`` faults strike
        commands on ``pcie*`` resources (see module docstring).
    retry:
        Re-drive budget for failed transfers.  Deliberately *not*
        defaulted: a fail with no policy raises
        :class:`~repro.errors.TransferError` at once.
    watchdog_seconds:
        Modelled wall-clock budget for the whole schedule; the first
        command to finish past it raises
        :class:`~repro.errors.WatchdogTimeout`.
    """
    if watchdog_seconds is not None and watchdog_seconds <= 0:
        raise ScheduleError(
            f"watchdog_seconds must be positive, got {watchdog_seconds}"
        )
    pending: list[Command] = list(queue.commands)
    resource_free: dict[str, float] = {}
    busy: dict[str, float] = {}
    timeline: list[tuple[str, str, float, float]] = []
    retries: dict[str, int] = {}
    makespan = 0.0

    # In-order per resource: the first unscheduled command of each resource
    # is the only candidate for that resource.
    while pending:
        progressed = False
        seen_resources: set[str] = set()
        for command in pending:
            if command.resource in seen_resources:
                continue  # an earlier command on this resource must go first
            seen_resources.add(command.resource)
            if not all(ev.complete for ev in command.wait_for):
                continue
            occupancy = command.duration
            if (fault_plan is not None
                    and command.resource.startswith("pcie")):
                occupancy, redrives = _transfer_occupancy(
                    command, fault_plan, retry)
                if redrives:
                    retries[command.name] = redrives
            start = resource_free.get(command.resource, 0.0)
            for ev in command.wait_for:
                start = max(start, ev.time)  # type: ignore[arg-type]
            command.start = start
            command.end = start + occupancy
            command.event.time = command.end
            resource_free[command.resource] = command.end
            busy[command.resource] = busy.get(command.resource, 0.0) + occupancy
            timeline.append((command.name, command.resource,
                             command.start, command.end))
            makespan = max(makespan, command.end)
            if (watchdog_seconds is not None
                    and command.end > watchdog_seconds):
                raise WatchdogTimeout(
                    f"schedule exceeded its watchdog budget: "
                    f"{command.name!r} finishes at {command.end:.6g}s > "
                    f"{watchdog_seconds:.6g}s"
                )
            pending.remove(command)
            progressed = True
            break
        if not progressed:
            raise _stall_error(queue, pending)

    timeline.sort(key=lambda item: item[3])
    return ScheduleResult(makespan=makespan, busy=busy, timeline=timeline,
                          retries=retries)
