"""The 27-point stencil window emitted by the shift buffer, and its run view.

A :class:`StencilWindow` is a snapshot of the three 3x3 register arrays of
one field's shift buffer at the cycle it was emitted, tagged with the
centre cell it provides a stencil for.  Values are addressed either in raw
register coordinates ``raw[s, dy, dz]`` (s = X-plane age, dy/dz = how many
cycles ago that Y/Z position was loaded) or — the form the advection
stages use — by stencil offset relative to the centre cell.

A :class:`WindowRun` answers the same questions for a box of windows of
one streamed block at once, one read-only strided view of the block per
offset, so one window function written as elementwise arithmetic over
``at`` serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["StencilWindow", "WindowRun"]


def _check_offset(di: int, dj: int, dk: int, top: bool) -> None:
    """Reject an offset outside the stencil, or ``dk=+1`` of a top window."""
    if not (-1 <= di <= 1 and -1 <= dj <= 1 and -1 <= dk <= 1):
        raise ValueError(f"stencil offsets must be in [-1, 1], got "
                         f"({di}, {dj}, {dk})")
    if top and dk == 1:
        raise ValueError(
            "dk=+1 requested from a column-top window; the register "
            "holds stale data there (see StencilWindow.top)"
        )


@dataclass(frozen=True)
class StencilWindow:
    """A 3x3x3 stencil for one field, centred on ``center``.

    Attributes
    ----------
    raw:
        Register contents, indexed ``raw[s, dy, dz]`` where ``s`` is the
        slab-slice index (0 = newest X-plane), ``dy``/``dz`` the Y/Z shift
        ages.  With the streaming order of the kernel this means
        ``raw[s, dy, dz] == field[x - s, y - dy, z - dz]`` for feed position
        ``(x, y, z)``.  A window :meth:`ShiftBuffer3D.feed` emits holds a
        copy of the registers; one cut from the streamed block
        (:meth:`ShiftBuffer3D.window_at`) holds a read-only view of it.
    center:
        Local ``(cx, cy, cz)`` coordinates of the centre cell within the
        array the buffer was fed from (halo coordinates for a chunk).
    top:
        True when this window was emitted for a column-top cell.  In that
        case the ``dk = +1`` plane holds stale values from the next column
        and MUST NOT be read — exactly as in the hardware, where the
        registers simply hold whatever streamed through last.  Top windows
        are re-indexed so that :meth:`at` still addresses the valid planes
        correctly.
    """

    raw: np.ndarray
    center: tuple[int, int, int]
    top: bool = False

    def __post_init__(self) -> None:
        if self.raw.shape != (3, 3, 3):
            raise ValueError(f"window must be 3x3x3, got {self.raw.shape}")

    def at(self, di: int, dj: int, dk: int) -> float:
        """Value at stencil offset ``(di, dj, dk)`` from the centre.

        Offsets must be in ``{-1, 0, +1}``.  For a normal window the centre
        sits at raw index ``[1, 1, 1]``; for a top window the Z axis is one
        register younger (the centre is the *last* value of its column), so
        the centre sits at ``[1, 1, 1]`` in Y/X but ``dz = 1 - dk`` becomes
        ``dz = 1 - (dk + 1)`` — requesting ``dk = +1`` from a top window is
        a logic error and raises.
        """
        # The offset checks of _check_offset, inline: this runs for every
        # operand of every scalar window evaluation.
        if not (-1 <= di <= 1 and -1 <= dj <= 1 and -1 <= dk <= 1) or (
                self.top and dk == 1):
            _check_offset(di, dj, dk, self.top)
        if self.top:
            return float(self.raw[1 - di, 1 - dj, -dk])
        return float(self.raw[1 - di, 1 - dj, 1 - dk])

    def as_array(self) -> np.ndarray:
        """Stencil as ``a[di+1, dj+1, dk+1]``; top windows get NaN at dk=+1.

        Convenient for whole-window comparisons in tests.
        """
        out = np.empty((3, 3, 3))
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    if self.top and dk == 1:
                        out[di + 1, dj + 1, dk + 1] = np.nan
                    else:
                        out[di + 1, dj + 1, dk + 1] = self.at(di, dj, dk)
        return out

    @property
    def center_value(self) -> float:
        return self.at(0, 0, 0)


class WindowRun:
    """A run view: a box of window centres of one block, addressed at once.

    ``box`` is ``(x0, x1, y0, y1, z0, z1)``, the centres ``x0 <= cx < x1``,
    ``y0 <= cy < y1`` and ``z0 <= cz < z1`` (one box of
    :func:`~repro.shiftbuffer.buffer3d.emission_boxes`).  :meth:`at`
    answers what :meth:`StencilWindow.at` answers for one window, for
    every window of the box, as one array of the box's shape;
    :attr:`center` holds the centres as three broadcastable coordinate
    arrays.  :attr:`top` is one flag for the whole run, as on a
    :class:`StencilWindow`: a top run holds column-top windows only
    (``cz == nz - 1``), and its ``at`` raises on ``dk = +1`` as the
    single window does.

    ``at`` returns a read-only strided view of ``block``, never a copy,
    so a window function must not update its operands in place.
    """

    def __init__(self, block: np.ndarray, box: tuple[int, ...], *,
                 top: bool = False) -> None:
        x0, x1, y0, y1, z0, z1 = box
        # Slices of a read-only view are read-only views themselves.
        self._block = block.view()
        self._block.flags.writeable = False
        self.box = (x0, x1, y0, y1, z0, z1)
        #: The shape of every :meth:`at` array: one entry per window.
        self.shape = (x1 - x0, y1 - y0, z1 - z0)
        #: True when every window of the run is a column top.
        self.top = top

    @cached_property
    def center(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centre coordinates ``(cx, cy, cz)``, of shapes ``(n, 1, 1)``,
        ``(1, n, 1)`` and ``(1, 1, n)``: they broadcast to the box."""
        x0, x1, y0, y1, z0, z1 = self.box
        return (np.arange(x0, x1).reshape(-1, 1, 1),
                np.arange(y0, y1).reshape(1, -1, 1),
                np.arange(z0, z1).reshape(1, 1, -1))

    def at(self, di: int, dj: int, dk: int) -> np.ndarray:
        """Values at stencil offset ``(di, dj, dk)`` from every centre,
        as a read-only view of the block."""
        _check_offset(di, dj, dk, self.top)
        x0, x1, y0, y1, z0, z1 = self.box
        return self._block[x0 + di:x1 + di, y0 + dj:y1 + dj,
                           z0 + dk:z1 + dk]

    def on(self, block: np.ndarray) -> "WindowRun":
        """The same windows over another block of the same shape; the
        box and the centre arrays are shared, not copied."""
        if block.shape != self._block.shape:
            raise ValueError(f"block shape {block.shape} differs from the "
                             f"run's {self._block.shape}")
        run = WindowRun(block, self.box, top=self.top)
        run.center = self.center
        return run
