"""Deterministic virtual time for the asyncio fleet scheduler.

The serving layer is concurrent (jobs arrive, queue, shard and complete
while other jobs are in flight) but must stay *deterministic*: the chaos
gate replays a faulted run twice and demands identical traces, and the
bench records p99 latencies that cannot wobble with host load.  So the
scheduler never sleeps on the wall clock.  :class:`VirtualClock` owns
modelled time: ``await clock.sleep(dt)`` parks the coroutine on a heap
of timers, and :func:`run_virtual` runs the root coroutine on an event
loop whose selector is the clock's idle point.  asyncio blocks in
``select(None)`` exactly when no callback is ready and no loop timer is
pending; there the selector pops the earliest timer and jumps ``now``
straight to it instead of blocking.  Nothing polls, and a million
modelled seconds costs the same wall time as one.  Where plain asyncio
would block forever (idle, no timer, root unfinished), a typed
:class:`~repro.serve.errors.SchedulerStallError` is raised instead.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
from typing import Any, Coroutine, Iterable, TypeVar

from repro.serve.errors import SchedulerStallError

__all__ = ["VirtualClock", "run_virtual"]

T = TypeVar("T")


class VirtualClock:
    """Modelled-seconds clock backed by a timer heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, asyncio.Future[None]]] = []
        self._seq = 0

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for ``seconds`` of modelled time.

        ``seconds <= 0`` still yields once so peers scheduled at the
        same instant interleave deterministically (heap order = FIFO of
        registration).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future[None] = loop.create_future()
        self._seq += 1
        heapq.heappush(self._heap, (self.now + max(seconds, 0.0),
                                    self._seq, future))
        await future

    def pending_timers(self) -> int:
        """Timers (sleeping tasks) still registered."""
        return sum(1 for _, _, fut in self._heap if not fut.cancelled())

    def _advance(self) -> bool:
        """Pop the earliest live timer, jump ``now`` to it, wake the task."""
        while self._heap:
            wake_at, _, future = heapq.heappop(self._heap)
            if future.cancelled():
                continue
            self.now = max(self.now, wake_at)
            future.set_result(None)
            return True
        return False


class _IdleSelector(selectors.DefaultSelector):
    """A selector that advances ``clock`` where the loop would block."""

    def __init__(self, clock: VirtualClock) -> None:
        super().__init__()
        self._clock = clock

    def select(self, timeout: float | None = None,
               ) -> list[tuple[selectors.SelectorKey, int]]:
        if timeout is None:
            if not self._clock._advance():
                raise SchedulerStallError(
                    "virtual-time executor stalled: no runnable task and "
                    "no pending timer while the serve run is unfinished "
                    "(scheduler defect)")
            timeout = 0
        elif timeout > 0:
            raise SchedulerStallError(
                f"a wall-clock loop timer is pending ({timeout:.3g} s); "
                "serve tasks sleep on the virtual clock only (scheduler "
                "defect)")
        return super().select(timeout)


def _cancel(loop: asyncio.AbstractEventLoop,
            tasks: Iterable[asyncio.Task[Any]]) -> None:
    """Cancel the unfinished ``tasks`` and run their cleanup to the end."""
    pending = [task for task in tasks if not task.done()]
    for task in pending:
        task.cancel()
    if pending:
        loop.run_until_complete(
            asyncio.gather(*pending, return_exceptions=True))


def run_virtual(clock: VirtualClock, coro: Coroutine[Any, Any, T]) -> T:
    """Execute ``coro`` to completion under ``clock``'s virtual time.

    If the loop goes idle with no timer pending while the root is
    unfinished, the root is cancelled, its cleanup runs, and
    :class:`~repro.serve.errors.SchedulerStallError` is raised.  Tasks
    left pending are then cancelled as :func:`asyncio.run` does; a
    cleanup that stalls again raises the same error.
    """
    loop = asyncio.SelectorEventLoop(_IdleSelector(clock))
    root = loop.create_task(coro)
    try:
        return loop.run_until_complete(root)
    finally:
        try:
            _cancel(loop, [root])
            _cancel(loop, asyncio.all_tasks(loop))
        finally:
            loop.close()
