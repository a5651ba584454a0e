"""Dataflow graph construction and structural validation.

A :class:`DataflowGraph` owns stages and the streams connecting them.  It
enforces the structural rules that the HLS tool chains enforce at synthesis
time: every declared port is connected exactly once, stream names are
unique, and the stage topology is a DAG (feedback in an HLS dataflow region
requires explicit feedback streams, which this kernel does not use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.dataflow.stage import Stage
from repro.dataflow.stream import DEFAULT_DEPTH, Stream
from repro.errors import GraphError
from repro.lint.diagnostics import Diagnostic, Location, Severity

__all__ = ["DataflowGraph", "Connection"]


@dataclass(frozen=True)
class Connection:
    """One stream together with its producer and consumer endpoints."""

    stream: Stream
    src: Stage
    src_port: str
    dst: Stage
    dst_port: str


class DataflowGraph:
    """A named collection of stages wired together with streams."""

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self._stages: dict[str, Stage] = {}
        self._streams: dict[str, Stream] = {}
        #: (src_stage, src_port) -> stream name, for topology queries.
        self._producers: dict[str, tuple[str, str]] = {}
        #: stream name -> (dst_stage, dst_port).
        self._consumers: dict[str, tuple[str, str]] = {}

    # -- construction --------------------------------------------------------

    def add(self, stage: Stage) -> Stage:
        """Register a stage; returns it for chaining."""
        if stage.name in self._stages:
            raise GraphError(f"duplicate stage name {stage.name!r}")
        self._stages[stage.name] = stage
        return stage

    def connect(self, src: Stage | str, src_port: str, dst: Stage | str,
                dst_port: str, *, depth: int = DEFAULT_DEPTH,
                name: str | None = None) -> Stream:
        """Create a stream from ``src.src_port`` to ``dst.dst_port``."""
        src_stage = self._resolve(src)
        dst_stage = self._resolve(dst)
        stream_name = name or f"{src_stage.name}.{src_port}->{dst_stage.name}.{dst_port}"
        if stream_name in self._streams:
            raise GraphError(f"duplicate stream name {stream_name!r}")
        stream = Stream(stream_name, depth=depth)
        src_stage.bind_output(src_port, stream)
        dst_stage.bind_input(dst_port, stream)
        self._streams[stream_name] = stream
        self._producers[stream_name] = (src_stage.name, src_port)
        self._consumers[stream_name] = (dst_stage.name, dst_port)
        return stream

    def merge(self, other: "DataflowGraph") -> None:
        """Absorb another graph's stages and streams (names must not clash).

        Used by the multi-kernel co-simulation to advance several
        independent kernel graphs under one cycle engine.
        """
        for stage in other.stages:
            self.add(stage)
        for stream in other.streams:
            if stream.name in self._streams:
                raise GraphError(
                    f"stream name clash while merging: {stream.name!r}"
                )
            self._streams[stream.name] = stream
            self._producers[stream.name] = other._producers[stream.name]
            self._consumers[stream.name] = other._consumers[stream.name]

    def _resolve(self, stage: Stage | str) -> Stage:
        if isinstance(stage, Stage):
            if stage.name not in self._stages:
                raise GraphError(f"stage {stage.name!r} not added to graph")
            return stage
        try:
            return self._stages[stage]
        except KeyError:
            raise GraphError(f"unknown stage {stage!r}") from None

    # -- accessors -------------------------------------------------------------

    @property
    def stages(self) -> tuple[Stage, ...]:
        return tuple(self._stages.values())

    @property
    def streams(self) -> tuple[Stream, ...]:
        return tuple(self._streams.values())

    def stage(self, name: str) -> Stage:
        return self._resolve(name)

    def stream(self, name: str) -> Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise GraphError(f"unknown stream {name!r}") from None

    def successors(self, stage: Stage | str) -> Iterator[Stage]:
        """Stages fed by this stage's output streams."""
        name = self._resolve(stage).name
        for stream_name, (src, _) in self._producers.items():
            if src == name:
                dst, _ = self._consumers[stream_name]
                yield self._stages[dst]

    def connections(self) -> Iterator["Connection"]:
        """Every stream with its endpoints, for topology analyses."""
        for stream_name, (src, src_port) in self._producers.items():
            dst, dst_port = self._consumers[stream_name]
            yield Connection(
                stream=self._streams[stream_name],
                src=self._stages[src], src_port=src_port,
                dst=self._stages[dst], dst_port=dst_port,
            )

    # -- validation ------------------------------------------------------------

    def structural_diagnostics(self) -> list[Diagnostic]:
        """Collect *every* structural violation in one pass.

        Unlike :meth:`validate`, which fails on the first problem, this
        returns the full list of findings the way an HLS synthesis report
        would: all unconnected ports (``DF001``), an empty graph
        (``DF002``), and cyclic topology (``DF003``).  The lint subsystem
        (:mod:`repro.lint`) wraps these into its rule catalogue.
        """
        diagnostics: list[Diagnostic] = []
        if not self._stages:
            diagnostics.append(Diagnostic(
                code="DF002", severity=Severity.ERROR,
                message=f"graph {self.name!r} has no stages",
                location=Location("graph", self.name),
                hint="add stages before validating or running the graph",
            ))
            return diagnostics
        for stage in self._stages.values():
            for direction, declared, bound in (
                ("input", stage.input_ports, stage.inputs),
                ("output", stage.output_ports, stage.outputs),
            ):
                for port in declared:
                    if port not in bound:
                        diagnostics.append(Diagnostic(
                            code="DF001", severity=Severity.ERROR,
                            message=(
                                f"stage {stage.name!r} has unconnected "
                                f"{direction} port {port!r}"
                            ),
                            location=Location("stage", stage.name, port),
                            hint="connect the port or remove it from the "
                                 "stage's declaration",
                        ))
        _order, cyclic = self._kahn()
        if cyclic:
            diagnostics.append(Diagnostic(
                code="DF003", severity=Severity.ERROR,
                message=(
                    f"graph {self.name!r} contains a cycle involving "
                    f"{cyclic}"
                ),
                location=Location("graph", self.name),
                hint="dataflow regions must be acyclic; feedback needs an "
                     "explicit feedback stream outside this design",
            ))
        return diagnostics

    def validate(self) -> None:
        """Check every port is wired and the topology is a DAG.

        Thin raising wrapper over :meth:`structural_diagnostics`: all
        violations are collected, then reported in a single
        :class:`~repro.errors.GraphError`.
        """
        errors = [d for d in self.structural_diagnostics()
                  if d.severity is Severity.ERROR]
        if errors:
            raise GraphError("; ".join(d.message for d in errors))

    def _kahn(self) -> tuple[list[Stage], list[str]]:
        """Kahn's algorithm: the tick order, and the sorted names of the
        stages left on or behind a cycle (none for a DAG).  A sorted
        ready queue and sorted successors fix the order by name alone:
        it decides which replica wins arbiter grants first."""
        indegree = {name: 0 for name in self._stages}
        edges: dict[str, list[str]] = {name: [] for name in self._stages}
        for stream_name, (src, _) in self._producers.items():
            dst, _ = self._consumers[stream_name]
            edges[src].append(dst)
            indegree[dst] += 1
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        order: list[Stage] = []
        while ready:
            name = ready.pop(0)
            order.append(self._stages[name])
            for succ in sorted(edges[name]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        return order, sorted(n for n, d in indegree.items() if d > 0)

    def topological_order(self) -> list[Stage]:
        """Stages ordered so producers come before consumers.

        The simulation engine ticks stages in this order, which lets a value
        flow at most one stage per cycle boundary while keeping the
        single-pass-per-cycle engine simple.
        """
        order, cyclic = self._kahn()
        if cyclic:
            raise GraphError(
                f"graph {self.name!r} contains a cycle involving {cyclic}"
            )
        return order

    def reset(self) -> None:
        """Reset all stages and drain all streams for a fresh run."""
        for stage in self._stages.values():
            stage.reset()
        for stream in self._streams.values():
            stream.drain()
            stream.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataflowGraph({self.name!r}, stages={len(self._stages)}, "
            f"streams={len(self._streams)})"
        )
