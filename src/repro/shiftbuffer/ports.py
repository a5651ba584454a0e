"""On-chip memory port accounting for the shift buffer.

BRAM/M20K blocks are dual ported: at most two accesses (any mix of reads
and writes) per block per cycle.  The paper's claim — "given correct
partitioning, there are never more than two memory accesses per cycle on
the 3D and 2D rectangular array" — is a structural property of the shift
buffer update sequence: every fed value touches each memory the same number
of times.  The buffer writes that per-feed access pattern down once, and
:meth:`MemoryPortTracker.record` books it for every simulated cycle — one
cycle per scalar feed, ``count`` cycles per batched feed.

The tracker also demonstrates the Intel-specific finding of section III-B:
*without* splitting the dimension-3 arrays apart, a single memory would see
more than two accesses per cycle, forcing the tooling to raise the
initiation interval.  Constructing a buffer with ``partitioned=False``
reproduces exactly that conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    def __init__(self, *, ports: int = DUAL_PORT, enforce: bool = True) -> None:
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.ports = ports
        self.enforce = enforce
        self._reports: dict[str, PortReport] = {}
        self.conflicts: int = 0

    def record(self, pattern: dict[str, int], cycles: int) -> None:
        """Book ``cycles`` cycles of ``pattern`` (accesses per memory).

        A shift buffer's per-feed pattern is a structural constant, so a
        scalar feed books it once and a batched feed books it ``count``
        times in one step.  Each memory over its port count adds one
        conflict per cycle and, when enforcing, raises before any report
        changes.  Every known report ages by ``cycles``, so memories that
        share a tracker share one cycle count.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        if cycles == 0:
            return
        for memory, count in pattern.items():
            if count > self.ports:
                self.conflicts += cycles
                if self.enforce:
                    raise PortConflictError(
                        f"memory {memory!r} accessed {count} times in one "
                        f"cycle but has only {self.ports} ports; partition "
                        f"the array (HLS array_partition / manual split on "
                        f"Intel)"
                    )
        for memory, count in pattern.items():
            report = self._reports.setdefault(memory, PortReport(memory))
            report.total_accesses += count * cycles
            if count > report.max_accesses_per_cycle:
                report.max_accesses_per_cycle = count
        for report in self._reports.values():
            report.cycles += cycles

    # -- results -----------------------------------------------------------------

    def report(self, memory: str) -> PortReport:
        return self._reports.get(memory, PortReport(memory))

    def reports(self) -> dict[str, PortReport]:
        return dict(self._reports)

    @property
    def worst_case(self) -> int:
        """Largest per-cycle access count seen on any memory."""
        return max(
            (r.max_accesses_per_cycle for r in self._reports.values()),
            default=0,
        )

    def achievable_ii(self) -> int:
        """Initiation interval the memory system forces on the design.

        A memory that needs N accesses per input with P ports can accept a
        new input only every ceil(N / P) cycles — this is how an
        unpartitioned layout shows up as II=2 in the vendor reports.
        """
        if self.worst_case == 0:
            return 1
        return -(-self.worst_case // self.ports)  # ceil division
