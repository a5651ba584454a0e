"""Schedule builders: the Fig. 5 (sequential) and Fig. 6 (overlapped) paths.

* **Sequential** — write the whole input, run the kernel, read the whole
  output, synchronising between steps.  Transfers use the synchronous
  (overhead-dominated) PCIe regime and share one serial link resource.
* **Overlapped** — chunk the X dimension; bulk-register every transfer up
  front; chain each chunk's kernel to its input transfer and each output
  transfer to its kernel with events.  Input and output DMA engines run
  concurrently on a duplex link, and while chunk *i* computes, chunk
  *i+1*'s input and chunk *i-1*'s output are in flight — the paper's
  CUDA-streams-inspired design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScheduleError
from repro.hardware.pcie import PCIeLink
from repro.runtime.queue import CommandQueue

__all__ = ["ChunkWork", "build_sequential_schedule",
           "build_overlapped_schedule", "sequential_durations",
           "overlapped_durations"]


@dataclass(frozen=True)
class ChunkWork:
    """Work description of one X chunk."""

    index: int
    in_bytes: float
    out_bytes: float
    kernel_seconds: float

    def __post_init__(self) -> None:
        if self.in_bytes < 0 or self.out_bytes < 0:
            raise ScheduleError("chunk byte counts must be >= 0")
        if self.kernel_seconds < 0:
            raise ScheduleError("chunk kernel time must be >= 0")


def sequential_durations(in_bytes: float, out_bytes: float,
                         kernel_seconds: float,
                         pcie: PCIeLink) -> list[float]:
    """Seconds of each command :func:`build_sequential_schedule`
    enqueues, in enqueue order."""
    return [pcie.transfer_time(in_bytes, streamed=False), kernel_seconds,
            pcie.transfer_time(out_bytes, streamed=False)]


def build_sequential_schedule(in_bytes: float, out_bytes: float,
                              kernel_seconds: float,
                              pcie: PCIeLink) -> CommandQueue:
    """Whole-problem write -> execute -> read with synchronisation.

    Every step waits on the previous one and the two transfers share one
    link resource: nothing overlaps, matching how the paper measured
    Fig. 5.
    """
    h2d, kernel, d2h = sequential_durations(in_bytes, out_bytes,
                                            kernel_seconds, pcie)
    queue = CommandQueue("sequential")
    ev_in = queue.enqueue_write("h2d[all]", h2d, resource="pcie")
    ev_k = queue.enqueue_kernel("kernel[all]", kernel, wait_for=[ev_in])
    queue.enqueue_read("d2h[all]", d2h, wait_for=[ev_k], resource="pcie")
    return queue


def overlapped_durations(chunks: list[ChunkWork],
                         pcie: PCIeLink) -> list[float]:
    """Seconds of each command :func:`build_overlapped_schedule`
    enqueues, in enqueue order: per chunk, its input transfer, its
    kernel and its output transfer."""
    durations = []
    for chunk in chunks:
        durations += (pcie.transfer_time(chunk.in_bytes, streamed=True),
                      chunk.kernel_seconds,
                      pcie.transfer_time(chunk.out_bytes, streamed=True))
    return durations


def build_overlapped_schedule(chunks: list[ChunkWork],
                              pcie: PCIeLink, *,
                              name_prefix: str = "") -> CommandQueue:
    """Chunked, event-chained schedule that overlaps transfer and compute.

    Dependencies per chunk ``i``:

    * ``kernel[i]`` waits for ``h2d[i]`` (data must be present) — kernel
      executions serialise on the one ``kernel`` resource;
    * ``d2h[i]`` waits for ``kernel[i]``.

    The H2D engine streams chunk after chunk without further waits (bulk
    registration), so input for later chunks is in flight while earlier
    chunks compute.  On a duplex link the D2H engine is a second resource;
    otherwise both directions serialise on one link.

    A device with several kernel replicas splits each chunk between
    them, so its regime is priced inside each chunk's ``kernel_seconds``
    (:meth:`~repro.hardware.device.FPGADevice.invocation`).

    ``name_prefix`` is prepended to every command name (and the queue
    name), giving each fleet lane a private fault-injection namespace so
    a ``transfer`` spec can target one device ("u280-0:*") without
    striking its siblings.
    """
    if not chunks:
        raise ScheduleError("overlapped schedule needs at least one chunk")
    queue = CommandQueue(f"{name_prefix}overlapped")
    h2d_res = "pcie_h2d"
    d2h_res = "pcie_d2h" if pcie.duplex else "pcie_h2d"
    durations = iter(overlapped_durations(chunks, pcie))
    for chunk in chunks:
        ev_in = queue.enqueue_write(
            f"{name_prefix}h2d[{chunk.index}]", next(durations),
            resource=h2d_res,
        )
        ev_k = queue.enqueue_kernel(
            f"{name_prefix}kernel[{chunk.index}]", next(durations),
            wait_for=[ev_in],
        )
        queue.enqueue_read(
            f"{name_prefix}d2h[{chunk.index}]", next(durations),
            wait_for=[ev_k], resource=d2h_res,
        )
    return queue
