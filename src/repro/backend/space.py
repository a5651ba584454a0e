"""Shared mixed-radix design-space machinery for backend tuner spaces.

Every backend exposes a parameter space as a cross product of per-axis
candidate tuples.  :class:`AxisSpace` implements the space algebra once
— deterministic enumeration, O(1) mixed-radix indexing, single-axis
neighbourhoods for local search — in terms of two hooks a concrete
space provides:

* :meth:`AxisSpace.axes` — axis name -> candidate values, in the point
  type's field order, and
* :meth:`AxisSpace._make_point` — construct a point from axis keywords.

The tuner's search strategies are written against exactly this surface
(``size``, ``point_at`` and ``neighbour_indices``): they walk indices
and build a point only to evaluate it.  So any backend whose space
derives from :class:`AxisSpace` is searchable by every registered
strategy with no strategy changes.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Any, Iterator

from repro.errors import TuneError

__all__ = ["AxisSpace"]


class AxisSpace:
    """Mixed-radix cross product of named candidate axes."""

    def axes(self) -> dict[str, tuple]:
        """Axis name -> candidate values, in point field order."""
        raise NotImplementedError

    def _make_point(self, **values: Any) -> Any:
        """Construct a point of this space from axis keywords."""
        raise NotImplementedError

    def validate_axes(self) -> None:
        """Reject empty or duplicated axes (call from ``__post_init__``)."""
        for name, axis in self._axis_fields().items():
            if not axis:
                raise TuneError(f"parameter axis {name!r} is empty")
            if len(set(axis)) != len(axis):
                raise TuneError(f"parameter axis {name!r} has duplicates")

    def _axis_fields(self) -> dict[str, tuple]:
        """Axis storage-field name -> values, for validation messages.

        Defaults to :meth:`axes`; spaces whose dataclass fields are named
        differently from their point fields (plural vs singular) override
        this so error messages cite the declared field.
        """
        return self.axes()

    @property
    def size(self) -> int:
        return math.prod(len(axis) for axis in self.axes().values())

    def points(self) -> Iterator[Any]:
        """Every point, in deterministic lexicographic axis order."""
        names = tuple(self.axes())
        for values in product(*self.axes().values()):
            yield self._make_point(**dict(zip(names, values)))

    def point_at(self, index: int) -> Any:
        """The ``index``-th point of :meth:`points` without materialising.

        Treats the space as a mixed-radix number, most-significant axis
        first — the same order ``points()`` yields.
        """
        if not 0 <= index < self.size:
            raise TuneError(
                f"point index {index} outside space of {self.size}"
            )
        axes = self.axes()
        chosen: dict[str, Any] = {}
        for name in reversed(tuple(axes)):
            axis = axes[name]
            index, digit = divmod(index, len(axis))
            chosen[name] = axis[digit]
        return self._make_point(**chosen)

    def index_of(self, point: Any) -> int:
        """The index :meth:`point_at` maps to ``point`` (its inverse)."""
        values = point.to_dict()
        index = 0
        for name, axis in self.axes().items():
            try:
                digit = axis.index(values[name])
            except ValueError:
                raise TuneError(
                    f"point {point.key()} is not on the space's "
                    f"{name} axis {axis}"
                ) from None
            index = index * len(axis) + digit
        return index

    def neighbour_indices(self, index: int) -> list[int]:
        """Indices one step away along a single axis (for local search).

        Axes in point field order, and on each axis the step down before
        the step up; no point is built.
        """
        axes = tuple(self.axes().values())
        stride = math.prod(len(axis) for axis in axes)
        if not 0 <= index < stride:
            raise TuneError(f"point index {index} outside space of {stride}")
        out: list[int] = []
        for axis in axes:
            stride //= len(axis)
            digit = index // stride % len(axis)
            if digit > 0:
                out.append(index - stride)
            if digit + 1 < len(axis):
                out.append(index + stride)
        return out

    def neighbours(self, point: Any) -> list[Any]:
        """Points one step away along a single axis (for local search)."""
        return [self.point_at(i)
                for i in self.neighbour_indices(self.index_of(point))]

    def to_dict(self) -> dict:
        return {name: list(axis) for name, axis in self.axes().items()}
