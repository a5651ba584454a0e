"""The token twin of a structural graph: the machine the proof ticks.

:func:`build_token_twin` turns any structural
:class:`~repro.dataflow.graph.DataflowGraph` (the kernels' own graphs,
or the :class:`~repro.lint.spec.SpecStage` graphs loaded from design
specs) into a *runnable* graph with identical names, port order, IIs,
latencies and FIFO depths, whose stages move opaque tokens on each
original stage's declared emission schedule
(:meth:`~repro.dataflow.stage.Stage.emits`).  Its stages are library
:class:`~repro.dataflow.stage.Stage` objects, so they fire, retire and
stall by the library's own rules.

:func:`~repro.analyze.interp.interpret` ticks the twin cycle by cycle
and jumps its proved periods; ``repro analyze --check`` and the test
suite run the same twin through
:class:`~repro.dataflow.engine.DataflowEngine` in exact mode, whose
batched windows and recurrence hunting are the engine's own, and its
cycle counts must equal the proof's byte for byte, multi-rate stages
included.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage

__all__ = ["TwinStage", "build_token_twin"]

#: The one opaque value every twin token carries.
_TOKEN: Any = object()


class TwinStage(Stage):
    """Moves tokens on the emission schedule of ``stage``.

    One token is consumed per input port per firing; firing ``i`` emits
    ``stage.emits(i)`` tokens per output port, in one read-only mapping
    shared by every firing that emits alike.  An input-less stage is a
    source firing ``count`` times (never, without output ports: the
    engine's exhausted-and-portless guard).  :meth:`regime` and
    :meth:`regime_left` are ``stage``'s, which the base ``ff_*`` hooks
    read; a source adds only its remaining supply.
    """

    def __init__(self, stage: Stage, count: int) -> None:
        super().__init__(stage.name, ii=stage.ii, latency=stage.latency)
        self.input_ports = stage.input_ports
        self.output_ports = stage.output_ports
        self._schedule = stage
        self._fired = 0
        self._remaining = count if stage.output_ports else 0
        self._produced: dict[tuple[int, ...], dict[str, list[Any]]] = {}

    def exhausted(self) -> bool:
        return bool(self.input_ports) or self._remaining <= 0

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]
             ) -> Mapping[str, list[Any]]:
        counts = self._schedule.emits(self._fired)
        self._fired += 1
        if not self.input_ports:
            self._remaining -= 1
        produced = self._produced.get(counts)
        if produced is None:
            produced = self._produced[counts] = {
                port: [_TOKEN] * count
                for port, count in zip(self.output_ports, counts) if count}
        return produced

    def skip(self, firings: int) -> None:
        """Move the schedule's firing index, and a source's supply, past
        ``firings`` firings that a proved period jump of the static
        analyzer makes without calling :meth:`fire`, which moves them
        itself."""
        self._fired += firings
        if not self.input_ports:
            self._remaining -= firings

    def regime(self, firing: int) -> tuple[Any, ...]:
        return self._schedule.regime(firing)

    def regime_left(self, firing: int) -> int | None:
        return self._schedule.regime_left(firing)

    def ff_signature(self, cycle: int) -> tuple[Any, ...] | None:
        signature = super().ff_signature(cycle)
        if self.input_ports or signature is None:
            return signature
        return signature + (self._remaining > 0,)

    def ff_fire_capacity(self, want: int) -> int:
        if not self.input_ports:
            want = min(want, self._remaining)
        return super().ff_fire_capacity(want)


def build_token_twin(graph: DataflowGraph, tokens: int) -> DataflowGraph:
    """A runnable twin of ``graph`` feeding ``tokens`` per source.

    Same stage names, port order, IIs, latencies, stream names and
    depths; every stage becomes a :class:`TwinStage` on the original's
    schedule.
    """
    twin = DataflowGraph(graph.name)
    for stage in graph.stages:
        twin.add(TwinStage(stage, tokens))
    for conn in graph.connections():
        twin.connect(conn.src.name, conn.src_port, conn.dst.name,
                     conn.dst_port, depth=conn.stream.depth,
                     name=conn.stream.name)
    return twin
