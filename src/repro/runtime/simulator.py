"""Discrete-event execution of a command queue.

List scheduling over serial resources: a command starts at the latest of
(a) its resource becoming free and (b) all awaited events completing.
Commands on one resource keep their enqueue order (in-order engines); the
makespan and per-resource busy times fall out, which is all the
performance figures of Figs. 5 and 6 need.

The simulator runs in two passes.  Which command starts next is the
first, in enqueue order, that heads its resource's lane and whose
awaited events have completed, and that never depends on a time: the
**order pass** (:func:`schedule_order`) fixes it once per queue, as a
:class:`ScheduleOrder`.  The **timing pass** (:meth:`ScheduleOrder.price`)
walks that order with one run's own command durations.  Queues of one
shape (the same commands, resources and waits, other durations) share
one order; :func:`simulate_schedule` runs both passes on one queue.

With a :class:`~repro.faults.plan.FaultPlan`, ``transfer`` faults strike
PCIe commands as they execute: a *stall* adds its modelled seconds to the
transfer (a stall with ``seconds=None`` hangs — surfaced as a typed
:class:`~repro.errors.WatchdogTimeout`, never an actual hang); a *fail*
aborts the attempt, and the transfer is re-driven under the
:class:`~repro.faults.retry.RetryPolicy` (occupying the link for each
attempt plus the policy's backoff).  Without a policy a failed transfer
raises :class:`~repro.errors.TransferError` immediately; with one, budget
exhaustion raises :class:`~repro.errors.RetryExhaustedError` chained to
the last failure.  Faults are drawn in start order, keyed by command
name, so a shared order draws exactly what a fresh queue would.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from repro.errors import (
    RetryExhaustedError,
    ScheduleError,
    TransferError,
    WatchdogTimeout,
)
from repro.runtime.queue import CommandQueue

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.runtime.event import Event

__all__ = ["ScheduleResult", "ScheduleOrder", "schedule_order",
           "simulate_schedule"]


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


def _transfer_occupancy(name: str, duration: float, fault_plan: "FaultPlan",
                        retry: "RetryPolicy | None") -> tuple[float, int]:
    """Seconds the link is occupied by transfer ``name`` under injected
    faults.

    Returns ``(occupancy_seconds, redrives)``.  Each re-driven attempt is
    a fresh fault opportunity, so a persistent fail spec keeps striking
    until the budget is spent.
    """
    occupancy = duration
    failures = 0
    while True:
        spec = fault_plan.draw("transfer", name)
        if spec is None:
            return occupancy, failures
        if spec.kind == "stall":
            if spec.seconds is None:
                raise WatchdogTimeout(
                    f"transfer {name!r} stalled and never "
                    f"completed (injected hang); schedule watchdog fired"
                )
            occupancy += spec.seconds
            return occupancy, failures  # delayed, but this attempt lands
        error = TransferError(
            f"transfer {name!r} failed in flight (injected fault)"
        )
        if retry is None:
            raise error
        failures += 1
        if failures >= retry.max_attempts:
            raise RetryExhaustedError(
                f"transfer {name!r} failed after {failures} "
                f"attempts (last error: {error})"
            ) from error
        # The failed attempt occupied the link in full, then the policy
        # backs off before the re-drive.
        occupancy += duration + retry.delay(failures - 1)


@dataclass(frozen=True)
class ScheduleOrder:
    """The order one queue's commands start in, and the waits of each.

    Built by :func:`schedule_order`; it holds no time a run of the
    queue produced.  Commands are numbered in enqueue order.  A command waits on time
    slots: slot ``i < len(names)`` is command ``i``'s completion, and
    the slots after them hold the times of already complete events that
    no queued command produces, read when the order was built.
    """

    queue_name: str
    #: Per command, in enqueue order.
    names: tuple[str, ...]
    #: Completion times of the foreign events, slots ``len(names)`` on.
    foreign: tuple[float, ...]
    #: Per command that starts, in start order: its number, name and
    #: resource, and the slots its start waits on, in ``wait_for`` order.
    steps: tuple[tuple[int, str, str, tuple[int, ...]], ...]
    #: Why the rest never start: a phantom wait or a dependency cycle
    #: (``None`` when every command starts).
    stall: str | None

    def price(self, durations: Sequence[float], *,
              fault_plan: "FaultPlan | None" = None,
              retry: "RetryPolicy | None" = None,
              watchdog_seconds: float | None = None) -> ScheduleResult:
        """The timing pass: run the queue with these command durations.

        ``durations`` holds one duration per command, in enqueue order.
        ``fault_plan``, ``retry`` and ``watchdog_seconds`` act as in
        :func:`simulate_schedule`.  Pricing reads nothing an earlier
        pricing wrote.
        """
        return _price(self, durations, fault_plan, retry, watchdog_seconds,
                      [])


def _price(order: ScheduleOrder, durations: Sequence[float],
           fault_plan: "FaultPlan | None", retry: "RetryPolicy | None",
           watchdog_seconds: float | None,
           started: list[tuple[str, str, float, float]]) -> ScheduleResult:
    """Time ``order``'s steps, appending each start to ``started``.

    ``started`` ends in start order, so a caller that catches a fault,
    watchdog or stall error still sees every command that ran.
    """
    if watchdog_seconds is not None and watchdog_seconds <= 0:
        raise ScheduleError(
            f"watchdog_seconds must be positive, got {watchdog_seconds}"
        )
    names = order.names
    if len(durations) != len(names):
        raise ScheduleError(
            f"queue {order.queue_name!r} has {len(names)} commands but "
            f"{len(durations)} durations were given")
    if durations and min(durations) < 0:
        index = next(i for i, seconds in enumerate(durations) if seconds < 0)
        raise ScheduleError(
            f"command {names[index]!r}: duration must be >= 0, got "
            f"{durations[index]}")
    ends = [0.0] * len(names)
    ends.extend(order.foreign)
    resource_free: dict[str, float] = {}
    busy: dict[str, float] = {}
    retries: dict[str, int] = {}
    makespan = 0.0
    for index, name, resource, slots in order.steps:
        occupancy = durations[index]
        if fault_plan is not None and resource.startswith("pcie"):
            occupancy, redrives = _transfer_occupancy(
                name, occupancy, fault_plan, retry)
            if redrives:
                retries[name] = redrives
        # The latest of the resource freeing and every awaited event.
        start = resource_free.get(resource, 0.0)
        for slot in slots:
            if ends[slot] > start:
                start = ends[slot]
        end = start + occupancy
        ends[index] = end
        resource_free[resource] = end
        busy[resource] = busy.get(resource, 0.0) + occupancy
        started.append((name, resource, start, end))
        if end > makespan:
            makespan = end
        if watchdog_seconds is not None and end > watchdog_seconds:
            raise WatchdogTimeout(
                f"schedule exceeded its watchdog budget: "
                f"{name!r} finishes at {end:.6g}s > "
                f"{watchdog_seconds:.6g}s"
            )
    if order.stall is not None:
        raise ScheduleError(order.stall)
    return ScheduleResult(makespan=makespan, busy=busy,
                          timeline=sorted(started, key=itemgetter(3)),
                          retries=retries)


def schedule_order(queue: CommandQueue) -> ScheduleOrder:
    """The order pass: the order ``queue``'s commands start in.

    A command may start once every earlier command on its resource has
    started and every event it waits on is complete: produced by a
    command that has started, or complete before the run.  Of those, the
    first in enqueue order starts next, so the order is a property of
    the queue's structure, never of its durations.  When no command can
    start, :attr:`ScheduleOrder.stall` names one blocked command and the
    event it waits on.
    """
    commands = queue.commands
    count = len(commands)
    producer = {id(command.event): index
                for index, command in enumerate(commands)}
    foreign: list[float] = []
    waits: list[tuple[int, ...]] = []
    # Per command: the commands that start before it may (its resource's
    # previous command, its events' producers) and how many of those, or
    # of phantom waits, are still unmet.
    unmet = [0] * count
    dependents: list[list[int]] = [[] for _ in range(count)]
    last: dict[str, int] = {}
    for index, command in enumerate(commands):
        previous = last.get(command.resource)
        last[command.resource] = index
        if previous is not None:
            dependents[previous].append(index)
            unmet[index] += 1
        slots = []
        for event in command.wait_for:
            source = producer.get(id(event))
            if source is not None:
                dependents[source].append(index)
                unmet[index] += 1
            elif event.time is not None:
                source = count + len(foreign)
                foreign.append(event.time)
            else:
                unmet[index] += 1
                continue
            slots.append(source)
        waits.append(tuple(slots))
    ready = [index for index in range(count) if not unmet[index]]
    steps: list[int] = []
    while ready:
        index = heapq.heappop(ready)
        steps.append(index)
        for waiter in dependents[index]:
            unmet[waiter] -= 1
            if not unmet[waiter]:
                heapq.heappush(ready, waiter)
    return ScheduleOrder(
        queue_name=queue.name,
        names=tuple(command.name for command in commands),
        foreign=tuple(foreign),
        steps=tuple((index, commands[index].name, commands[index].resource,
                     waits[index]) for index in steps),
        stall=(_stall_message(queue, set(steps), producer)
               if len(steps) < count else None))


def _stall_message(queue: CommandQueue, started: set[int],
                   producer: dict[int, int]) -> str:
    """Why no command left after ``started`` can start.

    Each resource's first pending command must go next, and it waits on
    an incomplete event.  Following that event to its producer's
    resource, and on, ends at an event no queued command produces, or
    back at a command already visited: a cycle.
    """
    commands = queue.commands
    pending = [index for index in range(len(commands))
               if index not in started]
    heads: dict[str, int] = {}
    for index in pending:
        heads.setdefault(commands[index].resource, index)

    def complete(event: "Event") -> bool:
        source = producer.get(id(event))
        return (source in started if source is not None
                else event.time is not None)

    visited: set[int] = set()
    index = pending[0]
    while index not in visited:
        visited.add(index)
        command = commands[index]
        event = next(ev for ev in command.wait_for if not complete(ev))
        source = producer.get(id(event))
        if source is None:
            return (f"command {command.name!r} waits on event "
                    f"{event.name!r} which no command in queue "
                    f"{queue.name!r} produces and which is not complete "
                    f"— it would never become runnable")
        blocked, index = command, heads[commands[source].resource]
    return (f"dependency cycle would deadlock queue {queue.name!r}: "
            f"command {blocked.name!r} waits on event {event.name!r}, "
            f"which completes only after {blocked.name!r} starts")


def simulate_schedule(queue: CommandQueue, *,
                      fault_plan: "FaultPlan | None" = None,
                      retry: "RetryPolicy | None" = None,
                      watchdog_seconds: float | None = None,
                      ) -> ScheduleResult:
    """Execute every command in ``queue`` and return the timeline.

    Both passes on one queue: :func:`schedule_order`, then
    :meth:`ScheduleOrder.price` with the commands' own durations.  Every
    command that ran gets its ``start``, ``end`` and event time.

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
    order = schedule_order(queue)
    started: list[tuple[str, str, float, float]] = []
    try:
        return _price(order, [command.duration for command in queue.commands],
                      fault_plan, retry, watchdog_seconds, started)
    finally:
        for (index, *_), (*_, start, end) in zip(order.steps, started):
            command = queue.commands[index]
            command.start, command.end = start, end
            command.event.time = end
