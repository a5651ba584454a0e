"""Grid geometry for the MONC-style advection domain.

The model grid follows the paper's coordinate convention (Fig. 4): ``z`` is
the vertical, ``y`` the horizontal, and ``x`` the remaining ("diagonal" in
the figure) dimension.  Arrays are stored C-ordered with shape
``(x, y, z)`` so that the vertical ``z`` index is contiguous in memory —
the same order in which the FPGA kernel streams values (k fastest, then j,
then i, exactly like the Fortran loop nest in Listing 1).

The PW scheme is a depth-1 stencil in every dimension, so fields carry a
one-cell halo in ``x`` and ``y``.  No halo is needed in ``z``: the bottom
level carries no source term and the top level uses a one-sided vertical
update, matching MONC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.errors import GridError

#: Stencil radius of the PW scheme in every dimension.
HALO_DEPTH: int = 1


@dataclass(frozen=True)
class Grid:
    """Geometry of a rectangular advection domain.

    Parameters
    ----------
    nx, ny, nz:
        Number of *computational* (non-halo) grid cells in each dimension.
        ``nz`` is the column height; the paper and MONC default to 64.
    dx, dy:
        Horizontal grid spacings in metres.
    dz:
        Vertical spacing in metres (uniform; MONC supports stretched grids
        but the kernel is insensitive to the actual spacing values).
    """

    nx: int
    ny: int
    nz: int
    dx: float = 100.0
    dy: float = 100.0
    dz: float = 40.0

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nz"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise GridError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise GridError(f"{name} must be >= 1, got {value}")
        if self.nz < 2:
            raise GridError(
                f"column height nz must be >= 2 for a vertical stencil, got {self.nz}"
            )
        for name in ("dx", "dy", "dz"):
            value = getattr(self, name)
            if not value > 0.0 or not np.isfinite(value):
                raise GridError(f"{name} must be positive and finite, got {value}")

    # -- sizes -------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Number of computational cells (excluding halos)."""
        return self.nx * self.ny * self.nz

    @property
    def halo_shape(self) -> tuple[int, int, int]:
        """Array shape including the one-cell x/y halo on each side."""
        return (self.nx + 2 * HALO_DEPTH, self.ny + 2 * HALO_DEPTH, self.nz)

    @property
    def interior_shape(self) -> tuple[int, int, int]:
        """Array shape of the computational interior."""
        return (self.nx, self.ny, self.nz)

    @property
    def num_columns(self) -> int:
        """Number of vertical columns in the interior."""
        return self.nx * self.ny

    def field_bytes(self, itemsize: int = 8) -> int:
        """Bytes of one interior field at the given item size."""
        return self.num_cells * itemsize

    # -- allocation helpers --------------------------------------------------

    def allocate(self, *, halo: bool = True, dtype=np.float64) -> np.ndarray:
        """Allocate a zero-filled field array, with or without halos."""
        shape = self.halo_shape if halo else self.interior_shape
        return np.zeros(shape, dtype=dtype)

    def interior(self, array: np.ndarray) -> np.ndarray:
        """View of the computational interior of a halo-carrying array."""
        if array.shape != self.halo_shape:
            raise GridError(
                f"expected halo shape {self.halo_shape}, got {array.shape}"
            )
        h = HALO_DEPTH
        return array[h:-h, h:-h, :]

    def with_size(self, nx: int | None = None, ny: int | None = None,
                  nz: int | None = None) -> "Grid":
        """Copy of this grid with some dimensions replaced."""
        return Grid(
            nx=self.nx if nx is None else nx,
            ny=self.ny if ny is None else ny,
            nz=self.nz if nz is None else nz,
            dx=self.dx, dy=self.dy, dz=self.dz,
        )

    # -- halo handling -------------------------------------------------------

    def fill_periodic_halo(self, array: np.ndarray) -> None:
        """Fill the x/y halos of ``array`` periodically, in place.

        MONC runs a horizontally decomposed domain with halo swaps between
        ranks; for a single-domain reproduction periodic wrap-around is the
        natural stand-in and is what the tests and examples use.
        """
        if array.shape != self.halo_shape:
            raise GridError(
                f"expected halo shape {self.halo_shape}, got {array.shape}"
            )
        h = HALO_DEPTH
        # x halos (axis 0): copy opposite interior edges.
        array[:h, :, :] = array[-2 * h:-h, :, :]
        array[-h:, :, :] = array[h:2 * h, :, :]
        # y halos (axis 1), after x so corners are consistent.
        array[:, :h, :] = array[:, -2 * h:-h, :]
        array[:, -h:, :] = array[:, h:2 * h, :]

    def check_halo_consistent(self, array: np.ndarray, *, atol: float = 0.0) -> bool:
        """Return True if the x/y halos match a periodic wrap of the interior."""
        expected = array.copy()
        self.fill_periodic_halo(expected)
        return bool(np.allclose(array, expected, atol=atol, rtol=0.0))

    # -- factories -------------------------------------------------------------

    @classmethod
    def from_cells(cls, num_cells: int, nz: int = 64, **spacings: float) -> "Grid":
        """Square-horizontal grid with approximately ``num_cells`` cells.

        This mirrors how the paper labels its problem sizes (1M, 4M, 16M...):
        a square ``n x n`` horizontal footprint with a 64-cell column.
        """
        if num_cells < nz:
            raise GridError(
                f"num_cells={num_cells} smaller than one column of {nz}"
            )
        horizontal = max(1, round((num_cells / nz) ** 0.5))
        return cls(nx=horizontal, ny=horizontal, nz=nz, **spacings)

    @classmethod
    def from_label(cls, label: str) -> "Grid":
        """The grid behind one of the paper's size labels ('16M', ...),
        from :data:`repro.constants.PAPER_GRID_LABELS`."""
        cells = constants.PAPER_GRID_LABELS.get(label)
        if cells is None:
            raise GridError(
                f"unknown size {label!r}; known: "
                f"{', '.join(constants.PAPER_GRID_LABELS)}")
        return cls.from_cells(cells)


@dataclass(frozen=True)
class GridDecomposition:
    """A 1-D decomposition of a grid along ``x`` across kernel instances.

    The multi-kernel experiments in Section IV of the paper split the domain
    between identical kernel instances; splitting along ``x`` keeps each
    piece's streaming order intact and needs a one-cell overlap per seam for
    the depth-1 stencil.
    """

    grid: Grid
    parts: int
    bounds: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.parts < 1:
            raise GridError(f"parts must be >= 1, got {self.parts}")
        if self.parts > self.grid.nx:
            raise GridError(
                f"cannot split nx={self.grid.nx} into {self.parts} parts"
            )
        base = self.grid.nx // self.parts
        extra = self.grid.nx % self.parts
        bounds: list[tuple[int, int]] = []
        start = 0
        for p in range(self.parts):
            width = base + (1 if p < extra else 0)
            bounds.append((start, start + width))
            start += width
        object.__setattr__(self, "bounds", tuple(bounds))

    def subgrid(self, part: int) -> Grid:
        """The grid owned by one kernel instance (interior cells only)."""
        start, stop = self.bounds[part]
        return self.grid.with_size(nx=stop - start)

    def cells(self, part: int) -> int:
        start, stop = self.bounds[part]
        return (stop - start) * self.grid.ny * self.grid.nz

    @property
    def max_cells(self) -> int:
        """Cell count of the largest part (determines multi-kernel runtime)."""
        return max(self.cells(p) for p in range(self.parts))
