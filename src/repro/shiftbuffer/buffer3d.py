"""The 3D shift buffer (Fig. 3 of the paper), one instance per field.

Data structures, exactly as the paper describes:

* ``slab`` — a ``3 x Y x Z`` array.  Streaming one value per cycle in the
  kernel's order (Z fastest, then Y, then X), the new value displaces the
  value at the current ``(y, z)`` position of slice 0, which displaces the
  corresponding value in slice 1, which displaces slice 2.  After feeding
  position ``(x, y, z)``, slice ``s`` holds plane ``x - s`` at all
  positions already passed.
* ``lines`` — per slab slice, a ``3 x Z`` rectangular buffer sliding in Y:
  the value entering slice ``s`` also enters line 0 at height ``z``,
  shifting lines 0→1→2 at that height, so line ``dy`` holds Y-column
  ``y - dy`` of plane ``x - s``.
* ``windows`` — per slab slice, a ``3 x 3`` register array shifting in Z:
  each cycle the three line values at the current height load into column
  0 and the columns shift 0→1→2, so ``windows[s][dy][dz]`` holds
  ``field[x - s, y - dy, z - dz]``.

Together the windows are the 27-point stencil.  Stencil emission rules
(documented in :meth:`ShiftBuffer3D.feed`) cover every interior cell of the
fed block at one input value per cycle, with a double emission at each
column top that downstream FIFOs absorb — total emissions per interior
column are ``nz - 1``, matching the paper's 63-results-per-64-cycle column
arithmetic.

Port accounting reproduces the paper's dual-port claims: with the arrays
partitioned (slab on its X dimension, lines on their Y dimension — the
``array_partition`` pragma on Xilinx, a manual split on Intel) no memory
sees more than two accesses per cycle; unpartitioned, the slab sees five,
which is what forced the Intel initiation interval above 1 until the
arrays were split (section III-B).  Every feed touches each memory the
same number of times, so the buffer builds that per-feed pattern once, at
construction, and books it through :meth:`MemoryPortTracker.record` —
one cycle per fed value — whether the value moves the registers
(:meth:`ShiftBuffer3D.feed`) or only the streaming position
(:meth:`ShiftBuffer3D.advance` and :meth:`ShiftBuffer3D.feed_bulk`).

A stream's control is arithmetic on a feed's position, in module
functions (:func:`feed_emissions`, :func:`feed_regime`,
:func:`feed_inner_regime` and their stops), which a stage streaming the
buffer reads at its firing index; the buffer keeps no regime state.

The buffer is a delay line: after each feed its windows hold a fixed
neighbourhood of the values already fed.  A caller that keeps the fed
values in streaming layout therefore needs no register shifts: it moves
the position (:meth:`ShiftBuffer3D.advance`,
:meth:`ShiftBuffer3D.feed_bulk`) and cuts each window from those values
(:meth:`ShiftBuffer3D.window_at`, a read-only view), as the kernels'
shift stage does.  The registers then no longer follow the stream, so
:meth:`ShiftBuffer3D.feed` refuses to run after either until
:meth:`ShiftBuffer3D.reset`.  :meth:`ShiftBuffer3D.feed` is the Fig. 3
model itself, register for register, and the tests' oracle for the cut
windows.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ShiftBufferError
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import StencilWindow

__all__ = [
    "ShiftBuffer3D",
    "emission_boxes",
    "emission_center",
    "feed_emissions",
    "feed_inner_regime",
    "feed_position",
    "feed_regime",
    "forwarded_before",
    "forwarded_emission",
    "inner_regime_stop",
    "producing_feed",
    "producing_feed_stop",
    "regime_stop",
]

#: One box of window centres, ``(x0, x1, y0, y1, z0, z1)``: the centres
#: ``x0 <= cx < x1``, ``y0 <= cy < y1``, ``z0 <= cz < z1``.
Box = tuple[int, int, int, int, int, int]


# Feeds are numbered over the stream, Z fastest, then Y, then X.  The
# functions below read a feed's position alone, so a buffer calls them
# at its live position and a stage's emission schedule at any feed; the
# stream may run past the block's last plane (planes ``x >= 2`` all
# behave alike), as a proof over more feeds than one block holds does.


def feed_position(fed: int, ny: int, nz: int) -> tuple[int, int, int]:
    """``(x, y, z)`` of feed ``fed`` in a stream of ``ny`` by ``nz``
    planes."""
    x, rest = divmod(fed, ny * nz)
    y, z = divmod(rest, nz)
    return x, y, z


def feed_emissions(x: int, y: int, z: int, ny: int,
                   nz: int) -> tuple[int, int]:
    """``(first, stop)``, the flat emission indices (see
    :func:`emission_center`) the feed at ``(x, y, z)`` emits: none until
    the position reaches ``x, y, z >= 2``, two at a column top."""
    if x < 2 or y < 2 or z < 2:
        return 0, 0
    first = ((x - 2) * (ny - 2) + y - 2) * (nz - 1) + z - 2
    return first, first + (2 if z == nz - 1 else 1)


def feed_regime(x: int, y: int, z: int) -> tuple:
    """The part of the position ``(x, y, z)`` that still decides emission:
    ``("prime",)`` while no feed can emit (``x < 2``, a one-feed
    period), else ``(2, y, z)``, since planes ``x >= 2`` all behave
    alike (a one-plane period).  :func:`feed_inner_regime` refines the
    steady planes."""
    if x < 2:
        return ("prime",)
    return (2, y, z)


def regime_stop(fed: int, ny: int, nz: int) -> int | None:
    """The feed that ends feed ``fed``'s :func:`feed_regime`: the prime
    planes end where emission starts, the steady planes run on
    (``None``)."""
    prime = 2 * ny * nz
    return prime if fed < prime else None


def feed_inner_regime(x: int, y: int, z: int) -> tuple | None:
    """The finer regime of ``(x, y, z)`` inside a steady plane: ``None``
    in the prime planes, ``("silent",)`` in a steady plane's silent
    columns (``y < 2``, a one-feed period), ``("column", z)`` in its
    emitting columns (a one-column period).

    No key holds X, so a period proved in one plane serves the next and
    the final one; two feeds with one key emit alike for the fewer of
    the feeds each has left before its :func:`inner_regime_stop`.
    """
    if x < 2:
        return None
    if y < 2:
        return ("silent",)
    return ("column", z)


def inner_regime_stop(fed: int, ny: int, nz: int) -> int:
    """The feed that ends feed ``fed``'s :func:`feed_inner_regime`: a
    steady plane's silent columns end at its first emitting column, and
    its emitting columns (like a prime plane) at the end of the plane."""
    x, y, _z = feed_position(fed, ny, nz)
    silent = x >= 2 and y < 2
    return (x * ny + (2 if silent else ny)) * nz


def emission_center(index: Any, ny: int, nz: int) -> tuple[Any, Any, Any, Any]:
    """Map a flat emission index to ``(cx, cy, cz, top)``.

    Emissions of a streaming pass are numbered ``0 .. (nx-2)(ny-2)(nz-1)``
    in the order :meth:`ShiftBuffer3D.feed` produces them: column by
    column (Y fastest, then X), ``nz - 1`` per interior column — the
    ``nz - 2`` full windows at ``cz = 1 .. nz-2`` followed by the
    column-top window at ``cz = nz - 1``.  This arithmetic is what lets
    the batched feed path address any window directly.  ``index`` may be
    an integer or an integer array; an array gives coordinate vectors.
    """
    column, j = divmod(index, nz - 1)
    cx = column // (ny - 2) + 1
    cy = column % (ny - 2) + 1
    cz = j + 1
    return cx, cy, cz, cz == nz - 1


# A stage that streams the buffer forwards ``per_column`` windows per
# interior column, numbered in forwarding order: ``nz - 1`` when the
# column-top windows travel downstream (forwarded numbers are then the
# emission numbers of :func:`emission_center`), ``nz - 2`` when only the
# full windows do.  Each column has ``nz - 2`` producing feeds; the last,
# the column top, forwards its full window and, with ``nz - 1``, the top
# one too.


def forwarded_emission(index: int, nz: int, per_column: int) -> int:
    """The emission number (:func:`emission_center`) of forwarded window
    ``index``."""
    column, j = divmod(index, per_column)
    return column * (nz - 1) + j


def forwarded_before(emission: int, nz: int, per_column: int) -> int:
    """Forwarded windows among the first ``emission`` emissions."""
    column, j = divmod(emission, nz - 1)
    return column * per_column + min(j, per_column)


def producing_feed(index: int, nz: int, per_column: int) -> int:
    """The producing feed, numbered over the whole stream, that forwards
    window ``index``."""
    column, j = divmod(index, per_column)
    return column * (nz - 2) + min(j, nz - 3)


def producing_feed_stop(feed: int, nz: int, per_column: int) -> int:
    """One past the last window producing feed ``feed`` forwards."""
    column, j = divmod(feed, nz - 2)
    return column * per_column + (per_column if j == nz - 3 else j + 1)


def emission_boxes(first: int, stop: int, ny: int,
                   per_column: int) -> list[Box]:
    """Cut the emissions ``[first, stop)`` into at most five boxes.

    Emissions are numbered as in :func:`emission_center`, with
    ``per_column`` of them per interior column at ``cz = 1 ..
    per_column``: ``nz - 1`` for the advection stream (column tops
    included), ``nz - 2`` for the generic stencils' full windows.
    The boxes are, in order, the rest of a column, the rest of a plane,
    whole planes, the columns of the last plane and the head of the last
    column; each box's C-order walk (Z fastest, then Y, then X) follows
    the numbering, so a run of windows reads as strided views of the
    block.  Empty boxes are left out.
    """
    per_plane = (ny - 2) * per_column
    boxes: list[Box] = []
    cursor = first
    for end in (min(stop, -(-first // per_column) * per_column),
                # The next plane, unless stop's column comes first.
                min(stop // per_column * per_column,
                    -(-first // per_plane) * per_plane),
                stop // per_plane * per_plane,
                stop // per_column * per_column,
                stop):
        if end <= cursor:
            continue
        x, rest = divmod(cursor, per_plane)
        y, z = divmod(rest, per_column)
        last_x, last_rest = divmod(end - 1, per_plane)
        last_y, last_z = divmod(last_rest, per_column)
        boxes.append((x + 1, last_x + 2, y + 1, last_y + 2, z + 1,
                      last_z + 2))
        cursor = end
    return boxes


class ShiftBuffer3D:
    """A shift buffer for one field over a ``(nx, ny, nz)`` block.

    Parameters
    ----------
    nx, ny, nz:
        Extent of the block that will be streamed through the buffer
        (including any halo).  Only ``ny`` and ``nz`` bound on-chip memory —
        the paper's motivation for chunking Y.
    partitioned:
        Model the arrays as partitioned into independent banks (the
        correct, II=1 configuration).  ``False`` models the naive layout
        and will report port conflicts.
    tracker:
        Optional shared :class:`MemoryPortTracker`; a non-enforcing private
        one is created otherwise.
    name:
        Prefix for memory names in port reports (e.g. the field name).
    """

    def __init__(self, nx: int, ny: int, nz: int, *, partitioned: bool = True,
                 tracker: MemoryPortTracker | None = None,
                 name: str = "field") -> None:
        if nx < 3 or ny < 3 or nz < 3:
            raise ShiftBufferError(
                f"block must be at least 3 in every dimension for a depth-1 "
                f"stencil, got ({nx}, {ny}, {nz})"
            )
        self.nx = nx
        self.ny = ny
        self.nz = nz
        self.partitioned = partitioned
        self.name = name
        self.tracker = tracker if tracker is not None else MemoryPortTracker(
            enforce=False
        )

        # Accesses each feed makes to each memory, booked once per feed.
        # Partitioned, every bank is its own dual-ported memory; the naive
        # layout puts a whole array in one memory (2 reads + 3 writes).
        if partitioned:
            pattern = {
                f"{name}.slab[0]": 2,  # read displaced + write new
                f"{name}.slab[1]": 2,  # read displaced + write
                f"{name}.slab[2]": 1,  # write only
            }
            for s in range(3):
                pattern[f"{name}.lines[{s}][0]"] = 2  # read old + write
                pattern[f"{name}.lines[{s}][1]"] = 2
                pattern[f"{name}.lines[{s}][2]"] = 1
        else:
            pattern = {f"{name}.slab": 5}
            for s in range(3):
                pattern[f"{name}.lines[{s}]"] = 5
        self._access_pattern = pattern

        self._slab = np.zeros((3, ny, nz))
        self._lines = np.zeros((3, 3, nz))  # [slice, dy, z]
        self._windows = np.zeros((3, 3, 3))  # [slice, dy, dz]

        # Streaming position of the NEXT value to be fed.
        self._x = 0
        self._y = 0
        self._z = 0
        self._fed = 0
        self._total = nx * ny * nz
        # True once advance or feed_bulk moved the position past values
        # the registers never took: feed refuses until reset.
        self._skipped = False

    # -- sizing ---------------------------------------------------------------

    @property
    def memory_words(self) -> int:
        """On-chip RAM words (slab + line buffers); windows are registers."""
        return 3 * self.ny * self.nz + 3 * 3 * self.nz

    @property
    def register_words(self) -> int:
        """Register words (the three 3x3 windows)."""
        return 27

    @property
    def fed(self) -> int:
        """Values consumed so far."""
        return self._fed

    @property
    def position(self) -> tuple[int, int, int]:
        """``(x, y, z)`` of the next value to be fed."""
        return (self._x, self._y, self._z)

    @property
    def expected_feeds(self) -> int:
        return self._total

    @property
    def expected_emissions(self) -> int:
        """Stencils a full streaming pass emits: interior columns x (nz-1)."""
        return (self.nx - 2) * (self.ny - 2) * (self.nz - 1)

    # -- the update ---------------------------------------------------------------

    def feed(self, value: float) -> list[StencilWindow]:
        """Consume one value; return the stencils that became complete.

        Values must arrive in streaming order (Z fastest, then Y, then X).
        Returns zero, one, or two windows:

        * feeding ``(x, y, z)`` with ``x, y, z >= 2`` completes the full
          window centred on ``(x-1, y-1, z-1)``;
        * feeding a column top ``(x, y, nz-1)`` with ``x, y >= 2``
          *additionally* completes the one-sided top window centred on
          ``(x-1, y-1, nz-1)`` — the burst a downstream FIFO absorbs during
          the two emission-free cycles at the start of the next column.
        """
        if self._fed >= self._total:
            raise ShiftBufferError(
                f"buffer {self.name!r} already consumed its full block of "
                f"{self._total} values"
            )
        if self._skipped:
            raise ShiftBufferError(
                f"buffer {self.name!r}: feed after advance or feed_bulk; "
                f"the registers did not take the values the position moved "
                f"over (reset the buffer first)"
            )
        # Book the ports first: an enforced conflict raises before any
        # array moves.
        self.tracker.record(self._access_pattern, 1)
        x, y, z = self._x, self._y, self._z

        # --- slab: shift in X at position (y, z) ---------------------------
        displaced0 = self._slab[0, y, z]
        displaced1 = self._slab[1, y, z]
        self._slab[0, y, z] = value
        self._slab[1, y, z] = displaced0
        self._slab[2, y, z] = displaced1

        # --- line buffers: shift in Y at height z ---------------------------
        # The value entering each slice is forwarded from the slab update
        # (no extra slab read), as the paper's dual-port budget requires.
        entering = (value, displaced0, displaced1)
        for s in range(3):
            old0 = self._lines[s, 0, z]
            old1 = self._lines[s, 1, z]
            self._lines[s, 2, z] = old1
            self._lines[s, 1, z] = old0
            self._lines[s, 0, z] = entering[s]

        # --- register windows: shift in Z -----------------------------------
        # Values are forwarded from the line-buffer shift, costing no ports;
        # both tool chains implement 3x3 arrays as registers (section III).
        self._windows[:, :, 2] = self._windows[:, :, 1]
        self._windows[:, :, 1] = self._windows[:, :, 0]
        for s in range(3):
            self._windows[s, :, 0] = self._lines[s, :, z]

        # --- emission --------------------------------------------------------
        emitted: list[StencilWindow] = []
        if x >= 2 and y >= 2:
            if z >= 2:
                emitted.append(
                    StencilWindow(
                        raw=self._windows.copy(),
                        center=(x - 1, y - 1, z - 1),
                        top=False,
                    )
                )
            if z == self.nz - 1:
                emitted.append(
                    StencilWindow(
                        raw=self._windows.copy(),
                        center=(x - 1, y - 1, self.nz - 1),
                        top=True,
                    )
                )

        # --- advance streaming position ---------------------------------------
        self._fed += 1
        self._z += 1
        if self._z == self.nz:
            self._z = 0
            self._y += 1
            if self._y == self.ny:
                self._y = 0
                self._x += 1
        return emitted

    def _emissions_before(self, feeds: int) -> int:
        """Windows emitted by the first ``feeds`` values of the block."""
        ny, nz = self.ny, self.nz
        x, y, z = feed_position(feeds, ny, nz)
        total = max(x - 2, 0) * (ny - 2) * (nz - 1)
        if x >= 2:
            total += max(y - 2, 0) * (nz - 1)
            if y >= 2:
                total += max(z - 2, 0)
        return total

    def next_emissions(self) -> tuple[int, int]:
        """``(first, stop)``, the flat emission indices the next feed
        emits (:func:`feed_emissions` at the buffer's position)."""
        return feed_emissions(self._x, self._y, self._z, self.ny, self.nz)

    def advance(self, count: int) -> None:
        """Move the position over the next ``count`` values.

        The registers stay as they are: the per-feed port pattern is
        booked ``count`` times (an enforced conflict raises before the
        position moves), and :meth:`feed` refuses to run after this until
        :meth:`reset`.  This is the scalar step of a caller that cuts its
        windows from the values it fed (:meth:`window_at`);
        :meth:`feed_bulk` is the batched form.
        """
        fed = self._fed + count
        if fed > self._total:
            raise ShiftBufferError(
                f"buffer {self.name!r}: advancing {count} values overruns "
                f"the block ({self._fed} of {self._total} already consumed)"
            )
        self.tracker.record(self._access_pattern, count)
        self._skipped = True
        self._fed = fed
        self._x, rest = divmod(fed, self.ny * self.nz)
        self._y, self._z = divmod(rest, self.nz)

    def feed_bulk(self, count: int) -> tuple[int, int]:
        """Advance ``count`` feeds analytically; return the emission range.

        The buffer moves its position and books the per-feed port
        pattern ``count`` times (:meth:`advance`); it does not touch the
        registers, so :meth:`feed` refuses to run after it.

        Returns ``(first, stop)``, the half-open range of flat emission
        indices (see :func:`emission_center`) the skipped feeds produced;
        callers cut any windows they need from the values they fed
        (:meth:`window_at`).
        """
        if count < 1:
            raise ShiftBufferError(
                f"buffer {self.name!r}: feed_bulk count must be >= 1, "
                f"got {count}"
            )
        first = self._emissions_before(self._fed)
        self.advance(count)
        return first, self._emissions_before(self._fed)

    def window_at(self, index: int, backing: np.ndarray) -> StencilWindow:
        """The window of one flat emission index, cut from ``backing``.

        ``backing`` holds the values fed, in the ``(nx, ny, nz)``
        streaming layout.  The cut is bit-identical to the window
        :meth:`feed` emits at that point of the stream: the registers
        hold the 3x3x3 neighbourhood of the feed position reversed on
        every axis (newest value at raw index 0).  ``raw`` is a
        read-only view of ``backing``, never a copy.
        """
        cx, cy, cz, top = emission_center(index, self.ny, self.nz)
        z0 = self.nz - 3 if top else cz - 1
        raw = backing[cx - 1:cx + 2, cy - 1:cy + 2, z0:z0 + 3][::-1, ::-1, ::-1]
        if raw.flags.writeable:
            raw.flags.writeable = False
        return StencilWindow(raw=raw, center=(cx, cy, cz), top=top)

    def reset(self) -> None:
        """Clear all state for a new block."""
        self._slab.fill(0.0)
        self._lines.fill(0.0)
        self._windows.fill(0.0)
        self._x = self._y = self._z = 0
        self._fed = 0
        self._skipped = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShiftBuffer3D({self.name!r}, nx={self.nx}, ny={self.ny}, "
            f"nz={self.nz}, fed={self._fed}/{self._total})"
        )
