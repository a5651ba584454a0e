"""On-chip memory port accounting for the shift buffer.

BRAM/M20K blocks are dual ported: at most two accesses (any mix of reads
and writes) per block per cycle.  The paper's claim — "given correct
partitioning, there are never more than two memory accesses per cycle on
the 3D and 2D rectangular array" — is a structural property of the shift
buffer update sequence: every fed value touches each memory the same number
of times.  The buffer writes that per-feed access pattern down once, and
:meth:`MemoryPortTracker.record` books it for every simulated cycle — one
cycle per scalar feed, ``count`` cycles per batched feed.  Booking only
adds to the pattern's cycle count; the per-memory reports are folded
from those counts when they are read.

The tracker also demonstrates the Intel-specific finding of section III-B:
*without* splitting the dimension-3 arrays apart, a single memory would see
more than two accesses per cycle, forcing the tooling to raise the
initiation interval.  Constructing a buffer with ``partitioned=False``
reproduces exactly that conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import PortConflictError

__all__ = ["MemoryPortTracker", "PortReport"]

#: Ports per on-chip RAM block (BRAM and M20K are both dual ported).
DUAL_PORT: int = 2


@dataclass
class PortReport:
    """Access statistics for one logical memory across a run."""

    name: str
    cycles: int = 0
    total_accesses: int = 0
    max_accesses_per_cycle: int = 0

    @property
    def mean_accesses_per_cycle(self) -> float:
        return self.total_accesses / self.cycles if self.cycles else 0.0


class _Booking:
    """One distinct access pattern and the cycles booked with it."""

    __slots__ = ("pattern", "items", "over", "cycles")

    def __init__(self, pattern: dict[str, int], ports: int) -> None:
        #: The pattern object last booked with these contents; holding it
        #: keeps its ``id`` from being reused while the ledger keys on it.
        self.pattern = pattern
        self.items = tuple(pattern.items())
        self.over = tuple((m, c) for m, c in self.items if c > ports)
        self.cycles = 0


class MemoryPortTracker:
    """Counts accesses per logical memory per cycle and enforces port limits.

    Parameters
    ----------
    ports:
        Ports available per memory per cycle (2 for dual-ported BRAM).
    enforce:
        When True, exceeding the port count raises
        :class:`~repro.errors.PortConflictError` — the simulator equivalent
        of the HLS tool refusing II=1.  When False, conflicts are only
        recorded, letting experiments *measure* how bad an unpartitioned
        layout would be.

    The tracker is a ledger: :meth:`record` adds cycles to its pattern's
    count in O(1), and :meth:`report`, :meth:`reports` and
    :attr:`worst_case` build :class:`PortReport` objects from those
    counts when they are read.
    """

    def __init__(self, *, ports: int = DUAL_PORT, enforce: bool = True) -> None:
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.ports = ports
        self.enforce = enforce
        self.conflicts: int = 0
        # id(pattern object) -> its booking, for the O(1) lookup; each
        # booking also sits under its contents, so a fresh dict with
        # known contents books into the same count.
        self._by_id: dict[int, _Booking] = {}
        self._by_items: dict[tuple, _Booking] = {}
        # memory -> cycles booked before the memory was first booked,
        # in first-booked order (the order reports are listed in).
        self._first: dict[str, int] = {}
        self._cycles = 0

    def _booking(self, pattern: dict[str, int]) -> _Booking:
        booking = self._by_id.get(id(pattern))
        if booking is not None and booking.pattern is pattern:
            return booking
        items = tuple(pattern.items())
        booking = self._by_items.get(items)
        if booking is None:
            booking = self._by_items[items] = _Booking(pattern, self.ports)
        else:
            self._by_id.pop(id(booking.pattern), None)
            booking.pattern = pattern
        self._by_id[id(pattern)] = booking
        return booking

    def record(self, pattern: dict[str, int], cycles: int) -> None:
        """Book ``cycles`` cycles of ``pattern`` (accesses per memory).

        A shift buffer's per-feed pattern is a structural constant, so a
        scalar feed books it once and a batched feed books it ``count``
        times in one step.  Each memory over its port count adds one
        conflict per cycle and, when enforcing, raises before any report
        changes.  Every known memory ages by ``cycles``, so memories that
        share a tracker share one cycle count.

        The ledger keys on the pattern object, so book a pattern's
        contents unchanged: pass a new dict rather than mutating a
        booked one.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        if cycles == 0:
            return
        booking = self._booking(pattern)
        if booking.over:
            if self.enforce:
                memory, count = booking.over[0]
                self.conflicts += cycles
                raise PortConflictError(
                    f"memory {memory!r} accessed {count} times in one "
                    f"cycle but has only {self.ports} ports; partition "
                    f"the array (HLS array_partition / manual split on "
                    f"Intel)"
                )
            self.conflicts += cycles * len(booking.over)
        if not booking.cycles:
            for memory, _count in booking.items:
                self._first.setdefault(memory, self._cycles)
        booking.cycles += cycles
        self._cycles += cycles

    @classmethod
    def merged(cls, trackers: Sequence[MemoryPortTracker]
               ) -> MemoryPortTracker:
        """One tracker holding the bookings and conflicts of ``trackers``.

        Each memory keeps the cycle count of the tracker that booked it,
        so its report equals that tracker's.  The first tracker's port
        count and enforcement carry over; a lone tracker is returned as
        it is.
        """
        if len(trackers) == 1:
            return trackers[0]
        merged = cls(ports=trackers[0].ports, enforce=trackers[0].enforce)
        merged._cycles = max(tracker._cycles for tracker in trackers)
        for tracker in trackers:
            merged.conflicts += tracker.conflicts
            for memory, before in tracker._first.items():
                merged._first[memory] = (merged._cycles - tracker._cycles
                                         + before)
            for booking in tracker._by_items.values():
                merged._booking(dict(booking.items)).cycles += booking.cycles
        return merged

    # -- results -----------------------------------------------------------------

    def _fold(self, memories: Iterable[str]) -> dict[str, PortReport]:
        reports = {m: PortReport(m, cycles=self._cycles - self._first[m])
                   for m in memories}
        for booking in self._by_items.values():
            if not booking.cycles:
                continue
            for memory, count in booking.items:
                report = reports.get(memory)
                if report is None:
                    continue
                report.total_accesses += count * booking.cycles
                if count > report.max_accesses_per_cycle:
                    report.max_accesses_per_cycle = count
        return reports

    def report(self, memory: str) -> PortReport:
        if memory not in self._first:
            return PortReport(memory)
        return self._fold((memory,))[memory]

    def reports(self) -> dict[str, PortReport]:
        return self._fold(self._first)

    @property
    def worst_case(self) -> int:
        """Largest per-cycle access count seen on any memory."""
        return max([0, *(count for booking in self._by_items.values()
                          if booking.cycles
                          for _memory, count in booking.items)])

    def achievable_ii(self) -> int:
        """Initiation interval the memory system forces on the design.

        A memory that needs N accesses per input with P ports can accept a
        new input only every ceil(N / P) cycles — this is how an
        unpartitioned layout shows up as II=2 in the vendor reports.
        """
        if self.worst_case == 0:
            return 1
        return -(-self.worst_case // self.ports)  # ceil division
