"""Bounded FIFO streams connecting dataflow stages.

A :class:`Stream` models an HLS stream (Xilinx) or an OpenCL channel
(Intel): a hardware FIFO of fixed depth.  Pushing into a full stream or
popping from an empty one is a *stall* in hardware; in the simulator stages
check :meth:`Stream.can_push` / :meth:`Stream.can_pop` before firing, and
the stream records how often it was the limiting resource so that designs
can be diagnosed (a persistently full stream marks a downstream bottleneck,
a persistently empty one an upstream bottleneck).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import FaultError, StreamError

__all__ = ["Stream", "StreamStats", "CorruptedWord", "DROP_WORD"]

#: Sentinel a fault hook returns to make a pushed word vanish in flight:
#: the producer's push is counted, the consumer never sees the item.
DROP_WORD: Any = object()


class CorruptedWord:
    """A FIFO word flipped in flight, detectable at the consumer side.

    Models ECC/CRC-protected links: corruption is *detected*, not
    silently consumed — popping a corrupted word raises
    :class:`~repro.errors.FaultError`, which the checkpointed layers
    catch and turn into a chunk retry.  The original value is kept so
    diagnostics can show what was lost.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptedWord({self.original!r})"

#: Default FIFO depth, matching the Vitis HLS default stream depth of 2
#: (one producer register plus one consumer register).
DEFAULT_DEPTH: int = 2


@dataclass
class StreamStats:
    """Lifetime statistics of one stream."""

    pushes: int = 0
    pops: int = 0
    max_occupancy: int = 0
    full_stalls: int = 0
    empty_stalls: int = 0

    def reset(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.max_occupancy = 0
        self.full_stalls = 0
        self.empty_stalls = 0


class Stream:
    """A bounded FIFO channel between two dataflow stages.

    Parameters
    ----------
    name:
        Identifier used in diagnostics.
    depth:
        Maximum number of in-flight items.  Must be >= 1; hardware FIFOs
        always provide at least one register.
    """

    __slots__ = ("name", "depth", "_items", "stats", "fault_hook")

    def __init__(self, name: str, depth: int = DEFAULT_DEPTH) -> None:
        if depth < 1:
            raise StreamError(f"stream {name!r}: depth must be >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._items: deque[Any] = deque()
        self.stats = StreamStats()
        #: Optional fault injector (armed by the engine from a
        #: :class:`~repro.faults.plan.FaultPlan`): called once per pushed
        #: word, it returns the word unchanged, a :class:`CorruptedWord`
        #: wrapper, or :data:`DROP_WORD`.  ``None`` (the default) keeps
        #: push/pop on the unhooked fast path.
        self.fault_hook: Callable[[Any], Any] | None = None

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        """Iterate over in-flight items front (next pop) to back."""
        return iter(self._items)

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def credits(self) -> int:
        """Free slots — the flow-control credit the producer holds, as
        an AXI-Stream/Avalon-ST credit counter would count it."""
        return self.depth - len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.depth

    def can_push(self, count: int = 1) -> bool:
        """True if ``count`` items fit right now."""
        return len(self._items) + count <= self.depth

    def can_pop(self, count: int = 1) -> bool:
        """True if ``count`` items are available right now."""
        return len(self._items) >= count

    # -- operations -----------------------------------------------------------

    def push(self, item: Any) -> None:
        """Append one item; raises :class:`StreamError` when full.

        Stages must guard with :meth:`can_push`; an unguarded push models a
        design error (data loss in hardware), hence the hard failure.
        """
        if self.is_full:
            self.stats.full_stalls += 1
            raise StreamError(
                f"push to full stream {self.name!r} (depth {self.depth})"
            )
        if self.fault_hook is not None:
            item = self.fault_hook(item)
            if item is DROP_WORD:
                # Lost in flight: the producer's push happened, the word
                # never arrives.  Downstream accounting goes short, which
                # the engine's deadlock guard or the chunk-seam integrity
                # check turns into a typed error.
                self.stats.pushes += 1
                return
        self._items.append(item)
        self.stats.pushes += 1
        if len(self._items) > self.stats.max_occupancy:
            self.stats.max_occupancy = len(self._items)

    def pop(self) -> Any:
        """Remove and return the oldest item; raises when empty."""
        if not self._items:
            self.stats.empty_stalls += 1
            raise StreamError(f"pop from empty stream {self.name!r}")
        self.stats.pops += 1
        item = self._items.popleft()
        if self.fault_hook is not None and type(item) is CorruptedWord:
            raise FaultError(
                f"corrupted word detected on stream {self.name!r} "
                f"(consumer-side ECC check)"
            )
        return item

    def peek(self) -> Any:
        """Return (without removing) the oldest item; raises when empty."""
        if not self._items:
            raise StreamError(f"peek at empty stream {self.name!r}")
        return self._items[0]

    def note_full_stall(self) -> None:
        """Record that a producer stalled on this stream this cycle."""
        self.stats.full_stalls += 1

    def note_empty_stall(self) -> None:
        """Record that a consumer stalled on this stream this cycle."""
        self.stats.empty_stalls += 1

    def ff_replace(self, items: list[Any], *, pushes: int, pops: int,
                   full_stalls: int = 0, empty_stalls: int = 0) -> None:
        """Replace contents and bulk-update statistics after a batched window.

        Called only by the engine's batched window relay
        (:mod:`repro.dataflow.engine`): ``items`` is the FIFO's content at
        the end of the analytically advanced window, ``pushes``/``pops``
        the traffic that logically flowed during it.  The high-water mark
        is untouched — a periodic window repeats occupancies the mark has
        already seen.
        """
        if len(items) > self.depth:
            raise StreamError(
                f"batched window would leave {len(items)} items in stream "
                f"{self.name!r} (depth {self.depth})"
            )
        self._items = deque(items)
        self.stats.pushes += pushes
        self.stats.pops += pops
        self.stats.full_stalls += full_stalls
        self.stats.empty_stalls += empty_stalls

    def drain(self) -> list[Any]:
        """Remove and return every in-flight item (end-of-run cleanup)."""
        items = list(self._items)
        self.stats.pops += len(items)
        self._items.clear()
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream({self.name!r}, depth={self.depth}, "
            f"occupancy={self.occupancy})"
        )
