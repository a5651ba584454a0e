"""Executable token twin of a structural graph.

The analyzer's claims are only worth anything if they can be checked
against the machine they model.  :func:`build_token_twin` turns any
structural :class:`~repro.dataflow.graph.DataflowGraph` (e.g. the
:class:`~repro.lint.spec.SpecStage` graphs loaded from design specs) into
a *runnable* graph with identical names, port order, IIs, latencies and
FIFO depths, whose stages move opaque tokens under exactly the unit-rate
relay semantics the interpreter assumes.  Running it through
:class:`~repro.dataflow.engine.DataflowEngine` in exact mode must then
reproduce the interpreter's cycle counts byte for byte — the
cross-verification behind ``repro analyze --check`` and the golden tests.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.dataflow.bulk import Bulk, FireBulkResult, ListBulk, \
    UniformFireResult
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.errors import DataflowError

__all__ = ["TokenSource", "RelayStage", "build_token_twin"]

#: The one opaque value every twin token carries.
_TOKEN: Any = object()


class TokenSource(Stage):
    """Emits ``count`` tokens on every declared output port.

    The control-state shape follows :class:`~repro.dataflow.stage.ConstStage`
    (a remaining counter, ``remaining > 0`` folded into the batched-window
    signature) generalised to arbitrary output ports.
    """

    def __init__(self, name: str, count: int, *,
                 outputs: tuple[str, ...] = ("out",), ii: int = 1,
                 latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        if count < 0:
            raise DataflowError(
                f"source {name!r}: token count must be >= 0, got {count}"
            )
        self.output_ports = tuple(outputs)
        self._shape = tuple((port, 1) for port in self.output_ports)
        self._remaining = count

    def exhausted(self) -> bool:
        return self._remaining <= 0

    def _try_fire(self, cycle: int) -> bool:
        if cycle < self._next_fire_cycle:
            self.stats.ii_waits += 1
            return False
        if len(self._pipeline) >= self.latency:
            self.stats.pipeline_full_stalls += 1
            return False
        if self._remaining <= 0:
            return False
        self._remaining -= 1
        self.stats.fires += 1
        self._next_fire_cycle = cycle + self.ii
        self._pipeline.append((
            cycle + self.latency,
            {port: [_TOKEN] for port in self.output_ports},
            self._shape,
        ))
        return True

    def ff_signature(self, cycle: int) -> tuple | None:
        base = super().ff_signature(cycle)
        return base + (self._remaining > 0,) if base is not None else None

    def ff_fire_capacity(self, want: int) -> int:
        return min(want, self._remaining)

    def fire_bulk(self, count: int, inputs: Mapping[str, Bulk],
                  cycle: int) -> FireBulkResult:
        if count > self._remaining:
            raise DataflowError(
                f"source {self.name!r}: batched window wants {count} tokens, "
                f"only {self._remaining} remain"
            )
        self._remaining -= count
        return UniformFireResult({port: ListBulk([_TOKEN] * count)
                                  for port in self.output_ports})

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]
             ) -> Mapping[str, list[Any]]:  # pragma: no cover - never called
        raise DataflowError("TokenSource.fire should never be called")


class RelayStage(Stage):
    """Unit-rate relay: one token in per input port, one out per output.

    With no output ports it degenerates to a sink (consume without
    producing), matching :class:`~repro.dataflow.stage.SinkStage`'s
    timing exactly.
    """

    def __init__(self, name: str, *, inputs: tuple[str, ...],
                 outputs: tuple[str, ...] = (), ii: int = 1,
                 latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.input_ports = tuple(inputs)
        self.output_ports = tuple(outputs)

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]
             ) -> Mapping[str, list[Any]]:
        return {port: [_TOKEN] for port in self.output_ports}


def build_token_twin(graph: DataflowGraph, tokens: int) -> DataflowGraph:
    """An engine-runnable twin of ``graph`` feeding ``tokens`` per source.

    Same stage names, port order, IIs, latencies, stream names and
    depths; input-less stages become :class:`TokenSource`, everything
    else a :class:`RelayStage`.
    """
    twin = DataflowGraph(graph.name)
    for stage in graph.stages:
        if not stage.input_ports:
            twin.add(TokenSource(
                stage.name, tokens if stage.output_ports else 0,
                outputs=stage.output_ports,
                ii=stage.ii, latency=stage.latency,
            ))
        else:
            twin.add(RelayStage(
                stage.name, inputs=stage.input_ports,
                outputs=stage.output_ports,
                ii=stage.ii, latency=stage.latency,
            ))
    for conn in graph.connections():
        twin.connect(conn.src.name, conn.src_port, conn.dst.name,
                     conn.dst_port, depth=conn.stream.depth,
                     name=conn.stream.name)
    return twin
