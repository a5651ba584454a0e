"""Lazy bulk containers for the engine's batched-window data path.

When the engine runs N periods of a steady-state machine as one batched
window (:mod:`repro.dataflow.engine`), every stage processes thousands of
items in one step.  Materialising each item as a Python object would
forfeit most of the speedup, so batch data travels between stages as
:class:`Bulk` objects: ordered, sliceable sequences that only materialise
real stream items on demand — for the few items that remain inside FIFOs
and stage pipelines when exact per-cycle simulation resumes.

``ListBulk`` wraps already-materialised items; ``ChainBulk``
concatenates heterogeneous parts (e.g. a FIFO's leftover items followed
by an array-backed block).  Domain-specific array-backed
bulks (cell blocks, stencil windows, advection results) live with the
kernel stages in :mod:`repro.kernel.stages`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import DataflowError

__all__ = ["Bulk", "ListBulk", "ChainBulk", "FireBulkResult",
           "ListFireResult", "UniformFireResult", "RaggedFireResult"]


class Bulk:
    """An ordered batch of stream items, materialised only on demand."""

    def __len__(self) -> int:
        raise NotImplementedError

    def slice(self, start: int, stop: int) -> "Bulk":
        """The sub-batch ``[start, stop)`` (cheap, no materialisation)."""
        raise NotImplementedError

    def materialize(self) -> list[Any]:
        """All items of this batch as real stream-item objects."""
        raise NotImplementedError

    def parts(self) -> Iterator["Bulk"]:
        """Homogeneous sub-batches, in order (self by default)."""
        yield self

    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= len(self)):
            raise DataflowError(
                f"bulk slice [{start}, {stop}) out of range for "
                f"{len(self)} items"
            )


class ListBulk(Bulk):
    """A batch backed by an in-memory list of real items."""

    def __init__(self, items: Sequence[Any]) -> None:
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def slice(self, start: int, stop: int) -> "ListBulk":
        self._check_range(start, stop)
        return ListBulk(self.items[start:stop])

    def materialize(self) -> list[Any]:
        return list(self.items)


class ChainBulk(Bulk):
    """Concatenation of several batches, in order."""

    def __init__(self, parts: Sequence[Bulk]) -> None:
        self._parts = [p for p in parts if len(p)]
        self._len = sum(len(p) for p in self._parts)

    def __len__(self) -> int:
        return self._len

    def parts(self) -> Iterator[Bulk]:
        for part in self._parts:
            yield from part.parts()

    def slice(self, start: int, stop: int) -> Bulk:
        self._check_range(start, stop)
        picked: list[Bulk] = []
        offset = 0
        for part in self._parts:
            lo = max(start - offset, 0)
            hi = min(stop - offset, len(part))
            if lo < hi:
                picked.append(part.slice(lo, hi))
            offset += len(part)
        if len(picked) == 1:
            return picked[0]
        return ChainBulk(picked)

    def materialize(self) -> list[Any]:
        out: list[Any] = []
        for part in self._parts:
            out.extend(part.materialize())
        return out


class FireBulkResult:
    """Outcome of a stage's batched firing run.

    The engine needs two views of the batch: the *tail* — the last few
    producing firings, individually materialised, which re-enter the
    stage's pipeline — and the *head* — everything before the tail, as a
    lazy bulk per port.
    """

    #: Number of firings that produced at least one output item.
    producing_firings: int = 0

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        """Materialised outputs of the last ``count`` producing firings."""
        raise NotImplementedError

    def head_bulk(self, port: str, count: int) -> Bulk:
        """Items emitted on ``port`` by the first ``count`` producing
        firings, as a lazy bulk."""
        raise NotImplementedError


class ListFireResult(FireBulkResult):
    """Fire-bulk result backed by a list of per-firing output mappings.

    The default for stages without a vectorised path: the engine loops
    :meth:`~repro.dataflow.stage.Stage.fire` and wraps the outputs here.
    """

    def __init__(self, firings: Sequence[Mapping[str, list[Any]]]) -> None:
        #: Only firings that produced something enter a stage pipeline.
        self.producing = [dict(f) for f in firings if f]
        self.producing_firings = len(self.producing)

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        if count == 0:
            return []
        return [dict(f) for f in self.producing[-count:]]

    def head_bulk(self, port: str, count: int) -> Bulk:
        items: list[Any] = []
        for firing in self.producing[:count]:
            items.extend(firing.get(port, ()))
        return ListBulk(items)


class UniformFireResult(FireBulkResult):
    """Fire-bulk result for stages emitting exactly one item per port per
    firing (sources, replicate, the advect stages): each port's output is
    one bulk whose i-th item belongs to the i-th firing."""

    def __init__(self, outputs: Mapping[str, Bulk]) -> None:
        self.outputs = dict(outputs)
        lengths = {len(b) for b in self.outputs.values()}
        if len(lengths) > 1:
            raise DataflowError(
                f"uniform fire result with ragged port lengths: "
                f"{ {p: len(b) for p, b in self.outputs.items()} }"
            )
        self.producing_firings = lengths.pop() if lengths else 0

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        n = self.producing_firings
        tails = {
            port: bulk.slice(n - count, n).materialize()
            for port, bulk in self.outputs.items()
        }
        return [
            {port: [tails[port][i]] for port in tails}
            for i in range(count)
        ]

    def head_bulk(self, port: str, count: int) -> Bulk:
        return self.outputs[port].slice(0, count)


class RaggedFireResult(FireBulkResult):
    """Fire-bulk result for stages emitting a varying number of items per
    firing (the stencil compute's one to three results per window).

    ``counts[i]`` is the number of items the i-th producing firing
    emitted on every port; each port's output is one bulk in firing
    order, split at the cumulative offsets of ``counts``.
    """

    def __init__(self, outputs: Mapping[str, Bulk],
                 counts: Sequence[int]) -> None:
        self.outputs = dict(outputs)
        per_firing = np.asarray(counts, dtype=np.int64)
        if per_firing.size and int(per_firing.min()) < 1:
            raise DataflowError(
                "ragged fire result: every producing firing emits at "
                "least one item")
        self._offsets = np.concatenate(([0], np.cumsum(per_firing)))
        total = int(self._offsets[-1])
        if any(len(bulk) != total for bulk in self.outputs.values()):
            raise DataflowError(
                f"ragged fire result: counts sum to {total} items, ports "
                f"hold { {p: len(b) for p, b in self.outputs.items()} }"
            )
        self.producing_firings = len(per_firing)

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        if count == 0:
            return []
        offsets = self._offsets[self.producing_firings - count:].tolist()
        base = offsets[0]
        tails = {
            port: bulk.slice(base, offsets[-1]).materialize()
            for port, bulk in self.outputs.items()
        }
        return [
            {port: items[lo - base:hi - base]
             for port, items in tails.items()}
            for lo, hi in zip(offsets, offsets[1:])
        ]

    def head_bulk(self, port: str, count: int) -> Bulk:
        return self.outputs[port].slice(0, int(self._offsets[count]))
