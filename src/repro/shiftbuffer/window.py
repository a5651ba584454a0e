"""The 27-point stencil window emitted by the shift buffer, and its run view.

A :class:`StencilWindow` is a snapshot of the three 3x3 register arrays of
one field's shift buffer at the cycle it was emitted, tagged with the
centre cell it provides a stencil for.  Values are addressed either in raw
register coordinates ``raw[s, dy, dz]`` (s = X-plane age, dy/dz = how many
cycles ago that Y/Z position was loaded) or — the form the advection
stages use — by stencil offset relative to the centre cell.

A :class:`WindowRun` answers the same questions for many windows of one
streamed block at once, one array per offset, so one window function
written as elementwise arithmetic over ``at`` serves both.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

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
        ``(x, y, z)``.
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
        _check_offset(di, dj, dk, self.top)
        dz = (0 - dk) if self.top else (1 - dk)
        return float(self.raw[1 - di, 1 - dj, dz])

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
    """A run view: many windows of one block, addressed at once.

    :meth:`at` answers what :meth:`StencilWindow.at` answers for one
    window, for every window of the run, as one float64 array;
    :attr:`center` holds the centres as coordinate arrays.  :attr:`top`
    is one flag for the whole run, as on a :class:`StencilWindow`: a top
    run holds column-top windows only (``cz == nz - 1``), and its ``at``
    raises on ``dk = +1`` as the single window does.

    ``at`` gathers by integer index, so each call returns a fresh array,
    never a view into ``block``: a window function may update its
    operands in place.
    """

    def __init__(self, block: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                 cz: np.ndarray, *, top: bool = False) -> None:
        self._block = block
        self._flat = block.reshape(-1)
        _nx, self._ny, self._nz = block.shape
        #: Centre coordinates ``(cx, cy, cz)``, one entry per window.
        self.center = (cx, cy, cz)
        #: True when every window of the run is a column top.
        self.top = top
        self._index = (cx * self._ny + cy) * self._nz + cz

    def __len__(self) -> int:
        return len(self._index)

    def at(self, di: int, dj: int, dk: int) -> np.ndarray:
        """Values at stencil offset ``(di, dj, dk)`` from every centre."""
        _check_offset(di, dj, dk, self.top)
        return self._flat.take(
            self._index + ((di * self._ny + dj) * self._nz + dk))

    def on(self, block: np.ndarray) -> "WindowRun":
        """The same windows over another block of the same shape; the
        centre arrays and the flat index are shared, not copied."""
        if block.shape != self._block.shape:
            raise ValueError(f"block shape {block.shape} differs from the "
                             f"run's {self._block.shape}")
        run = copy.copy(self)
        run._block = block
        run._flat = block.reshape(-1)
        return run

    def select(self, mask: np.ndarray) -> "WindowRun":
        """The sub-run of the windows where ``mask`` holds."""
        cx, cy, cz = self.center
        return WindowRun(self._block, cx[mask], cy[mask], cz[mask],
                         top=self.top)
