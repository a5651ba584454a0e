"""Chunking with halo overlap (Fig. 4 of the paper).

The shift buffer's on-chip memory is bounded by the Y and Z extents only,
so the kernel decouples domain size from FPGA resources by processing the
Y dimension in fixed-width chunks.  Because the stencil is depth 1, two
neighbouring chunks overlap by two grid points — "one for the right halo of
the left chunk and the other for the left halo of the right chunk".

The same planner serves the host-side X chunking that the overlapped
PCIe-transfer schedule of Section IV uses (each X chunk is a smaller
data-set and a shorter kernel execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ChunkingError
from repro.lint.diagnostics import Diagnostic, Location, Severity

__all__ = ["Chunk", "ChunkPlan", "plan_chunks"]

#: Stencil halo depth; fixed by the PW scheme.
HALO: int = 1

#: Below this chunk width the paper observed external-memory efficiency
#: degrading (short non-contiguous bursts); at or above, impact is
#: negligible.  Used by the memory model, recorded here with the planner.
MIN_EFFICIENT_CHUNK: int = 8


@dataclass(frozen=True)
class Chunk:
    """One chunk of a 1-D decomposition in *extended* (halo) coordinates.

    ``read_start:read_stop`` is the slab the kernel streams in (interior
    plus one halo cell each side); ``write_start:write_stop`` is the
    interior slab whose results this chunk owns.  All coordinates index the
    halo-extended axis (so 0 is the left halo cell of the full domain).
    """

    index: int
    read_start: int
    read_stop: int
    write_start: int
    write_stop: int

    @property
    def read_width(self) -> int:
        return self.read_stop - self.read_start

    @property
    def write_width(self) -> int:
        return self.write_stop - self.write_start

    def __post_init__(self) -> None:
        if self.read_width < 3:
            raise ChunkingError(
                f"chunk {self.index} reads only {self.read_width} cells; a "
                f"depth-1 stencil needs at least 3"
            )
        if not (self.read_start <= self.write_start
                and self.write_stop <= self.read_stop):
            raise ChunkingError(
                f"chunk {self.index}: write range [{self.write_start}, "
                f"{self.write_stop}) outside read range [{self.read_start}, "
                f"{self.read_stop})"
            )


@dataclass(frozen=True)
class ChunkPlan:
    """A full 1-D chunking of an axis of ``interior`` cells."""

    interior: int
    chunk_width: int
    chunks: tuple[Chunk, ...]
    halo: int = field(default=HALO)

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def total_read_cells(self) -> int:
        """Cells streamed in across all chunks (counts the overlap twice)."""
        return sum(c.read_width for c in self.chunks)

    @property
    def overlap_cells(self) -> int:
        """Extra cells read due to chunking, relative to one big chunk."""
        return self.total_read_cells - (self.interior + 2 * self.halo)

    @property
    def redundancy(self) -> float:
        """Read amplification factor (1.0 = no overlap overhead)."""
        return self.total_read_cells / (self.interior + 2 * self.halo)

    def coverage_diagnostics(self) -> list[Diagnostic]:
        """Every coverage finding, as structured diagnostics.

        Errors (``KC102`` seam gap/overlap, ``KC103`` interior not fully
        covered) mean the plan would corrupt results; warnings and infos
        flag legal-but-questionable plans: ``KC101`` chunks narrower than
        the seam overlap (halo-dominated reads), ``KC108`` a single-chunk
        domain (chunking is a no-op), ``KC109`` a ragged tail chunk
        (interior not divisible by the chunk width).
        """
        diagnostics: list[Diagnostic] = []
        if not self.chunks:
            diagnostics.append(Diagnostic(
                code="KC103", severity=Severity.ERROR,
                message=f"plan has no chunks for interior {self.interior}",
                location=Location("chunk", "plan"),
                hint="plan_chunks() always produces at least one chunk; "
                     "hand-built plans must too",
            ))
            return diagnostics
        if self.chunk_width < 2 * self.halo:
            diagnostics.append(Diagnostic(
                code="KC101", severity=Severity.WARNING,
                message=(
                    f"chunk width {self.chunk_width} is narrower than the "
                    f"{2 * self.halo}-cell seam overlap; halo cells dominate "
                    f"every read (redundancy {self.redundancy:.2f}x)"
                ),
                location=Location("chunk", "plan", "chunk_width"),
                hint=f"use a chunk width of at least "
                     f"{max(2 * self.halo, MIN_EFFICIENT_CHUNK)}",
            ))
        cursor = self.halo
        for chunk in self.chunks:
            if chunk.write_start != cursor:
                kind = "overlap" if chunk.write_start < cursor else "gap"
                diagnostics.append(Diagnostic(
                    code="KC102", severity=Severity.ERROR,
                    message=(
                        f"chunk {chunk.index} writes from "
                        f"{chunk.write_start}, expected {cursor}: {kind} in "
                        f"coverage"
                    ),
                    location=Location("chunk", str(chunk.index),
                                      "write_start"),
                    hint="neighbouring chunks must abut exactly; only the "
                         "*read* ranges may overlap (by 2*halo cells)",
                ))
            cursor = chunk.write_stop
        if cursor != self.interior + self.halo:
            diagnostics.append(Diagnostic(
                code="KC103", severity=Severity.ERROR,
                message=(
                    f"chunks cover interior up to {cursor - self.halo}, "
                    f"expected {self.interior}"
                ),
                location=Location("chunk", "plan"),
                hint="the last chunk's write_stop must reach the end of "
                     "the interior",
            ))
        if self.num_chunks == 1:
            diagnostics.append(Diagnostic(
                code="KC108", severity=Severity.INFO,
                message=(
                    f"single-chunk domain (interior {self.interior} <= "
                    f"chunk width {self.chunk_width}): no seam overlap, "
                    f"on-chip buffers sized by the domain itself"
                ),
                location=Location("chunk", "plan"),
            ))
        elif self.chunks[-1].write_width != self.chunk_width:
            diagnostics.append(Diagnostic(
                code="KC109", severity=Severity.INFO,
                message=(
                    f"interior {self.interior} not divisible by chunk width "
                    f"{self.chunk_width}: tail chunk {self.chunks[-1].index} "
                    f"is {self.chunks[-1].write_width} wide"
                ),
                location=Location("chunk", str(self.chunks[-1].index)),
                hint="a ragged tail is correct but slightly less "
                     "burst-efficient; divisible widths avoid it",
            ))
        return diagnostics

    def validate_coverage(self) -> None:
        """Check the chunks tile the interior exactly once, in order.

        Thin raising wrapper over :meth:`coverage_diagnostics`: collects
        every violation, then reports all error-severity findings in one
        :class:`~repro.errors.ChunkingError`.
        """
        errors = [d for d in self.coverage_diagnostics()
                  if d.severity is Severity.ERROR]
        if errors:
            raise ChunkingError("; ".join(d.message for d in errors))


def plan_chunks(interior: int, chunk_width: int, *,
                halo: int = HALO) -> ChunkPlan:
    """Split an axis of ``interior`` cells into chunks of ``chunk_width``.

    Parameters
    ----------
    interior:
        Number of computational cells along the axis (halo excluded).
    chunk_width:
        Interior cells per chunk (the on-chip buffer must hold
        ``chunk_width + 2 * halo`` cells).  The final chunk may be
        narrower.
    halo:
        Stencil radius: 1 for the PW scheme and every kernel the shift
        buffer serves; a wider halo plans the seams of a deeper stencil.

    Returns
    -------
    ChunkPlan
        Chunks in ascending order; neighbouring chunks' *read* ranges
        overlap by exactly ``2 * halo`` cells, as in Fig. 4.
    """
    if interior < 1:
        raise ChunkingError(f"interior must be >= 1, got {interior}")
    if chunk_width < 1:
        raise ChunkingError(f"chunk_width must be >= 1, got {chunk_width}")
    if halo < 1:
        raise ChunkingError(f"halo must be >= 1, got {halo}")
    if chunk_width <= halo:
        raise ChunkingError(
            f"chunk_width ({chunk_width}) must exceed the halo ({halo}): "
            f"each chunk streams chunk_width + {2 * halo} cells, so at this "
            f"width the seam overlap swallows the interior entirely; use a "
            f"chunk width of at least {halo + 1} (>= {MIN_EFFICIENT_CHUNK} "
            f"for efficient bursts)"
        )

    chunks: list[Chunk] = []
    start = 0  # interior coordinate
    index = 0
    while start < interior:
        width = min(chunk_width, interior - start)
        write_start = halo + start
        write_stop = write_start + width
        chunks.append(
            Chunk(
                index=index,
                read_start=write_start - halo,
                read_stop=write_stop + halo,
                write_start=write_start,
                write_stop=write_stop,
            )
        )
        start += width
        index += 1

    plan = ChunkPlan(interior=interior, chunk_width=chunk_width,
                     chunks=tuple(chunks), halo=halo)
    plan.validate_coverage()
    return plan
