"""Host-side runtime simulation: command queues, events and overlap.

Section IV of the paper hides PCIe transfer behind compute by chunking the
X dimension, bulk-registering all transfers, and chaining kernel
executions to their chunk's transfers with OpenCL events.  This subpackage
reproduces that machinery as a discrete-event simulation:

* :mod:`repro.runtime.event` / :mod:`repro.runtime.queue` — commands,
  dependencies, and in-order resources (the DMA engines and the kernel
  bank),
* :mod:`repro.runtime.simulator` — list-scheduling executor producing a
  timeline: a start order fixed once per queue, timed per run,
* :mod:`repro.runtime.overlap` — builders for the Fig. 5 (sequential) and
  Fig. 6 (overlapped) schedules,
* :mod:`repro.runtime.buffer` — device-buffer allocation against memory
  capacities (the V100's 16 GB limit falls out here),
* :mod:`repro.runtime.session` — end-to-end runs on a device model,
  returning time, power, and energy.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "Event",
    "Command",
    "CommandQueue",
    "DeviceBuffer",
    "BufferAllocator",
    "simulate_schedule",
    "schedule_order",
    "ScheduleOrder",
    "ScheduleResult",
    "build_sequential_schedule",
    "build_overlapped_schedule",
    "AdvectionSession",
    "RunResult",
    "SessionMemo",
]

_EXPORTS = LazyExports(__name__, {
    "repro.runtime.buffer": ("BufferAllocator", "DeviceBuffer"),
    "repro.runtime.event": ("Command", "Event"),
    "repro.runtime.overlap": ("build_overlapped_schedule",
                              "build_sequential_schedule"),
    "repro.runtime.queue": ("CommandQueue",),
    "repro.runtime.session": ("AdvectionSession", "RunResult",
                              "SessionMemo"),
    "repro.runtime.simulator": ("ScheduleOrder", "ScheduleResult",
                                "schedule_order", "simulate_schedule"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
