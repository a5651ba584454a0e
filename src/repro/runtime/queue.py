"""Command queues: enqueue transfers and kernel executions.

A :class:`CommandQueue` collects commands in enqueue order; the simulator
then executes them respecting both resource serialisation and event
dependencies.  Helper enqueue methods mirror the OpenCL host calls used in
the paper (``clEnqueueWriteBuffer``/``ReadBuffer``/``NDRangeKernel`` with
event wait lists).
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.runtime.event import Command, Event

__all__ = ["CommandQueue"]


class CommandQueue:
    """An out-of-order command queue with event dependencies.

    "Out of order" in the OpenCL sense: commands are free to reorder
    subject to their event wait lists, but each *resource* (DMA engine,
    kernel bank) remains serial — which is how the overlapped schedule
    gets transfer/compute concurrency from a single queue.
    """

    def __init__(self, name: str = "queue") -> None:
        self.name = name
        self.commands: list[Command] = []

    def enqueue(self, command: Command) -> Event:
        """Add a command; returns its completion event."""
        if command.scheduled:
            raise ScheduleError(
                f"command {command.name!r} was already executed"
            )
        self.commands.append(command)
        return command.event

    # -- OpenCL-flavoured helpers ---------------------------------------------

    def enqueue_write(self, name: str, seconds: float, *,
                      wait_for: list[Event] | None = None,
                      resource: str = "pcie_h2d") -> Event:
        """Host-to-device transfer (clEnqueueWriteBuffer)."""
        return self.enqueue(Command(
            name=name, resource=resource, duration=seconds,
            wait_for=list(wait_for or []),
        ))

    def enqueue_read(self, name: str, seconds: float, *,
                     wait_for: list[Event] | None = None,
                     resource: str = "pcie_d2h") -> Event:
        """Device-to-host transfer (clEnqueueReadBuffer)."""
        return self.enqueue(Command(
            name=name, resource=resource, duration=seconds,
            wait_for=list(wait_for or []),
        ))

    def enqueue_kernel(self, name: str, seconds: float, *,
                       wait_for: list[Event] | None = None,
                       resource: str = "kernel") -> Event:
        """Kernel execution (clEnqueueNDRangeKernel)."""
        return self.enqueue(Command(
            name=name, resource=resource, duration=seconds,
            wait_for=list(wait_for or []),
        ))

    def __len__(self) -> int:
        return len(self.commands)
