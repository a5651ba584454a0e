"""Field containers for the advection kernel.

A :class:`FieldSet` holds the three prognostic wind components ``u``, ``v``
and ``w`` on a common grid (each with x/y halos); a :class:`SourceSet` holds
the corresponding advection source terms ``su``, ``sv``, ``sw`` on the
interior only, mirroring how the FPGA kernel streams inputs in and results
out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import Grid
from repro.errors import GridError

__all__ = ["FieldSet", "SourceSet"]

#: Names of the prognostic fields, in kernel streaming order.
FIELD_NAMES: tuple[str, str, str] = ("u", "v", "w")
#: Names of the source-term fields, in kernel streaming order.
SOURCE_NAMES: tuple[str, str, str] = ("su", "sv", "sw")


@dataclass
class FieldSet:
    """The three wind components on one grid, halos included."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        for name in FIELD_NAMES:
            arr = getattr(self, name)
            if arr.shape != self.grid.halo_shape:
                raise GridError(
                    f"field {name!r} has shape {arr.shape}, expected halo "
                    f"shape {self.grid.halo_shape}"
                )
            if arr.dtype != np.float64:
                raise GridError(
                    f"field {name!r} must be float64, got {arr.dtype}"
                )

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldSet":
        """All-zero fields on ``grid``."""
        return cls(grid, grid.allocate(), grid.allocate(), grid.allocate())

    @classmethod
    def from_interior(cls, grid: Grid, u: np.ndarray, v: np.ndarray,
                      w: np.ndarray, *, periodic: bool = True) -> "FieldSet":
        """Build a field set from interior-only arrays.

        Halos are filled periodically when ``periodic`` is set, otherwise
        left at zero (open boundaries).
        """
        fields = cls.zeros(grid)
        for name, interior in zip(FIELD_NAMES, (u, v, w)):
            interior = np.asarray(interior, dtype=np.float64)
            if interior.shape != grid.interior_shape:
                raise GridError(
                    f"interior for {name!r} has shape {interior.shape}, "
                    f"expected {grid.interior_shape}"
                )
            grid.interior(getattr(fields, name))[...] = interior
        if periodic:
            fields.fill_halos()
        return fields

    # -- views and halo management ------------------------------------------

    def interior(self, name: str) -> np.ndarray:
        """Interior view of one field by name."""
        if name not in FIELD_NAMES:
            raise KeyError(f"unknown field {name!r}; expected one of {FIELD_NAMES}")
        return self.grid.interior(getattr(self, name))

    def fill_halos(self) -> None:
        """Fill all x/y halos periodically, in place."""
        for name in FIELD_NAMES:
            self.grid.fill_periodic_halo(getattr(self, name))

    def copy(self) -> "FieldSet":
        return FieldSet(self.grid, self.u.copy(), self.v.copy(), self.w.copy())

    # -- statistics used by tests/examples ------------------------------------

    def momentum(self) -> tuple[float, float, float]:
        """Interior momentum sums (u, v, w); the PW scheme conserves these
        under periodic boundaries."""
        return (
            float(self.interior("u").sum()),
            float(self.interior("v").sum()),
            float(self.interior("w").sum()),
        )

    def max_speed(self) -> float:
        """Maximum wind speed magnitude over the interior."""
        speed2 = (
            self.interior("u") ** 2
            + self.interior("v") ** 2
            + self.interior("w") ** 2
        )
        return float(np.sqrt(speed2.max(initial=0.0)))

    @property
    def nbytes_interior(self) -> int:
        """Bytes of the three interior fields (the PCIe input payload)."""
        return 3 * self.grid.field_bytes()


@dataclass
class SourceSet:
    """Advection source terms on the grid interior."""

    grid: Grid
    su: np.ndarray
    sv: np.ndarray
    sw: np.ndarray

    def __post_init__(self) -> None:
        for name in SOURCE_NAMES:
            arr = getattr(self, name)
            if arr.shape != self.grid.interior_shape:
                raise GridError(
                    f"source {name!r} has shape {arr.shape}, expected "
                    f"interior shape {self.grid.interior_shape}"
                )

    @classmethod
    def zeros(cls, grid: Grid) -> "SourceSet":
        shape = grid.interior_shape
        return cls(grid, np.zeros(shape), np.zeros(shape), np.zeros(shape))

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.su, self.sv, self.sw)

    def copy(self) -> "SourceSet":
        return SourceSet(self.grid, self.su.copy(), self.sv.copy(), self.sw.copy())

    def allclose(self, other: "SourceSet", *, rtol: float = 1e-12,
                 atol: float = 1e-14) -> bool:
        """Element-wise comparison against another source set."""
        return all(
            np.allclose(getattr(self, n), getattr(other, n), rtol=rtol, atol=atol)
            for n in SOURCE_NAMES
        )

    def same_bits(self, other: "SourceSet") -> bool:
        """Byte-for-byte equality of all three terms (``-0.0 != 0.0``)."""
        return all(
            a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
            for a, b in zip(self.as_tuple(), other.as_tuple())
        )

    def max_abs_difference(self, other: "SourceSet") -> float:
        """Largest absolute element-wise difference across all three terms
        (``0.0`` does not mean bit-identical: see :meth:`same_bits`)."""
        return max(
            float(np.abs(getattr(self, n) - getattr(other, n)).max(initial=0.0))
            for n in SOURCE_NAMES
        )

    @property
    def nbytes(self) -> int:
        """Bytes of the three source fields (the PCIe output payload)."""
        return 3 * self.grid.field_bytes()
