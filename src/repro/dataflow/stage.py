"""Dataflow stages: pipelined processing elements with streams in and out.

A :class:`Stage` models one box of the paper's Fig. 2 — an independent
region of the FPGA running concurrently with every other stage.  Hardware
behaviour captured here:

* **Initiation interval (II)** — a stage may accept a new input every
  ``ii`` cycles.  The whole point of the paper's shift-buffer design is to
  hold II at 1; the URAM experiment in section III-A shows what II = 2 does
  to throughput, and the simulator reproduces that effect.
* **Pipeline latency** — results emerge ``latency`` cycles after their
  inputs were consumed, and up to ``latency`` results can be in flight.
* **Backpressure** — a stage only fires when each input stream has the
  items it needs and it only retires a result when the destination streams
  have room; otherwise it stalls and the stall is attributed to the
  limiting stream.

Subclasses implement :meth:`Stage.fire`, a pure function from consumed
input items to produced output items, keeping the timing model strictly
separated from the functional behaviour.  The ``ff_*`` hooks and
:meth:`Stage.fire_bulk` let the engine's batched execution advance whole
steady-state periods at once (see :mod:`repro.dataflow.engine`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.dataflow.bulk import (
    Bulk,
    FireBulkResult,
    ListBulk,
    ListFireResult,
    UniformFireResult,
)
from repro.dataflow.stream import Stream
from repro.errors import DataflowError, GraphError

__all__ = [
    "Stage",
    "StageStats",
    "SourceStage",
    "SinkStage",
    "FunctionStage",
    "ConstStage",
]

#: Cached entry shape for single-item "out"-port firings (sources).
_ONE_OUT_SHAPE = (("out", 1),)


@dataclass
class StageStats:
    """Lifetime statistics of one stage."""

    fires: int = 0
    retired: int = 0
    input_stalls: int = 0
    output_stalls: int = 0
    ii_waits: int = 0
    pipeline_full_stalls: int = 0

    def reset(self) -> None:
        self.fires = 0
        self.retired = 0
        self.input_stalls = 0
        self.output_stalls = 0
        self.ii_waits = 0
        self.pipeline_full_stalls = 0


class Stage:
    """Base class for dataflow stages.

    Parameters
    ----------
    name:
        Unique name within the graph.
    ii:
        Initiation interval in cycles (>= 1).
    latency:
        Pipeline depth in cycles (>= 1): cycles between consuming inputs
        and the result being available to push downstream.
    """

    #: Input port names this stage declares; overridden by subclasses.
    input_ports: tuple[str, ...] = ()
    #: Output port names this stage declares; overridden by subclasses.
    output_ports: tuple[str, ...] = ()
    #: True when one firing consumes exactly one word per input port and
    #: produces exactly one per output port — the semantics the static
    #: analyzer (:mod:`repro.analyze`) interprets.  Stages that batch or
    #: gate their I/O (the shift buffer, the arbitrated reader) clear
    #: this, which withholds compile-time period hints from
    #: :func:`repro.dataflow.compiled.compile_graph` without affecting
    #: runtime recurrence detection.
    unit_rate: bool = True

    def __init__(self, name: str, *, ii: int = 1, latency: int = 1) -> None:
        if ii < 1:
            raise DataflowError(f"stage {name!r}: ii must be >= 1, got {ii}")
        if latency < 1:
            raise DataflowError(
                f"stage {name!r}: latency must be >= 1, got {latency}"
            )
        self.name = name
        self.ii = ii
        self.latency = latency
        self.inputs: dict[str, Stream] = {}
        self.outputs: dict[str, Stream] = {}
        self.stats = StageStats()
        # Entries are (ready_cycle, produced, shape) where shape is the
        # per-port item-count tuple, computed once at fire time so the
        # fast-forward signature never re-derives it per cycle.
        self._pipeline: deque[
            tuple[int, dict[str, list[Any]], tuple]
        ] = deque()
        self._next_fire_cycle = 0

    # -- wiring (called by DataflowGraph) --------------------------------------

    def bind_input(self, port: str, stream: Stream) -> None:
        if port not in self.input_ports:
            raise GraphError(
                f"stage {self.name!r} has no input port {port!r}; "
                f"declared: {self.input_ports}"
            )
        if port in self.inputs:
            raise GraphError(
                f"input port {self.name}.{port} already connected"
            )
        self.inputs[port] = stream

    def bind_output(self, port: str, stream: Stream) -> None:
        if port not in self.output_ports:
            raise GraphError(
                f"stage {self.name!r} has no output port {port!r}; "
                f"declared: {self.output_ports}"
            )
        if port in self.outputs:
            raise GraphError(
                f"output port {self.name}.{port} already connected"
            )
        self.outputs[port] = stream

    def check_wired(self) -> None:
        """Raise :class:`GraphError` if any declared port is unconnected."""
        missing_in = set(self.input_ports) - set(self.inputs)
        missing_out = set(self.output_ports) - set(self.outputs)
        if missing_in or missing_out:
            raise GraphError(
                f"stage {self.name!r} has unconnected ports: "
                f"inputs {sorted(missing_in)}, outputs {sorted(missing_out)}"
            )

    # -- behaviour hooks --------------------------------------------------------

    def required_inputs(self) -> Mapping[str, int]:
        """Items needed on each input port for one firing (default: 1 each)."""
        return {port: 1 for port in self.input_ports}

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]
             ) -> Mapping[str, list[Any]]:
        """Consume ``inputs`` and return items per output port.

        Must be pure with respect to simulation timing: all timing is
        handled by the base class.  May return an empty mapping (consume
        without producing, e.g. while a shift buffer primes).
        """
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when this stage will never fire again given no new input.

        Source stages override this; ordinary stages are exhausted by
        construction (they only react to input).
        """
        return True

    # -- simulation ----------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Results currently inside the pipeline."""
        return len(self._pipeline)

    def is_idle(self) -> bool:
        """No in-flight work and nothing consumable on the inputs."""
        if self._pipeline:
            return False
        if not self.exhausted():
            return False
        return not any(
            stream.can_pop(count)
            for stream, count in (
                (self.inputs[p], c) for p, c in self.required_inputs().items()
            )
        ) if self.inputs else True

    def _retire(self, cycle: int) -> bool:
        """Push the oldest matured result downstream if possible.

        Returns True if progress was made.  Results retire strictly in
        order (hardware pipelines are FIFO).
        """
        if not self._pipeline:
            return False
        ready_cycle, produced, _shape = self._pipeline[0]
        if ready_cycle > cycle:
            return False
        # All destinations must have room for everything this firing produced.
        for port, items in produced.items():
            stream = self.outputs[port]
            if not stream.can_push(len(items)):
                stream.note_full_stall()
                self.stats.output_stalls += 1
                return False
        for port, items in produced.items():
            stream = self.outputs[port]
            for item in items:
                stream.push(item)
        self._pipeline.popleft()
        self.stats.retired += 1
        return True

    def _try_fire(self, cycle: int) -> bool:
        """Attempt to consume inputs and start one firing."""
        if cycle < self._next_fire_cycle:
            self.stats.ii_waits += 1
            return False
        if len(self._pipeline) >= self.latency:
            # The pipeline is as deep as it is long; a clogged exit
            # backpressures the entrance.
            self.stats.pipeline_full_stalls += 1
            return False
        if self.exhausted() and not self.input_ports:
            return False
        needed = self.required_inputs()
        for port, count in needed.items():
            stream = self.inputs[port]
            if not stream.can_pop(count):
                stream.note_empty_stall()
                self.stats.input_stalls += 1
                return False
        consumed = {
            port: [self.inputs[port].pop() for _ in range(count)]
            for port, count in needed.items()
        }
        produced = dict(self.fire(cycle, consumed))
        unknown = set(produced) - set(self.output_ports)
        if unknown:
            raise DataflowError(
                f"stage {self.name!r} produced on undeclared ports "
                f"{sorted(unknown)}"
            )
        self.stats.fires += 1
        self._next_fire_cycle = cycle + self.ii
        if produced:
            self._pipeline.append((
                cycle + self.latency, produced,
                tuple((p, len(v)) for p, v in produced.items()),
            ))
        return True

    def tick(self, cycle: int) -> bool:
        """Advance one cycle: retire then fire.  Returns True on progress."""
        progressed = self._retire(cycle)
        progressed |= self._try_fire(cycle)
        return progressed

    # -- fast-forward hooks (see DataflowEngine, batched=True) -----------------

    def ff_signature(self, cycle: int) -> tuple | None:
        """Hashable summary of all *control* state, or None to veto.

        The batched engine detects steady state by finding two cycles
        with identical control state: pipeline fill (entry ages and output
        shapes), the II timer, and any subclass state that influences
        *when* or *how many* items the stage produces.  Data values must
        not influence control for the analytic advance to be exact; a
        stage whose output counts depend on input values must override
        this to return ``None`` (vetoing batched windows for the rest of
        the run).

        Ready ages are clamped at zero: an overdue pipeline entry behaves
        identically however long it has been due.  This runs once per
        scalar cycle of a batched run, so it leans on the shape tuples
        cached at fire time instead of re-deriving them.
        """
        pipe = tuple([
            (ready - cycle if ready > cycle else 0, shape)
            for ready, _produced, shape in self._pipeline
        ])
        wait = self._next_fire_cycle - cycle
        return (wait if wait > 0 else 0, pipe)

    def ff_fire_capacity(self, want: int) -> int:
        """How many of ``want`` firings this stage could still perform.

        Sources bound this by their remaining items, the shift buffer by
        its block size; stages fed purely by streams have no cap of their
        own (the engine already bounds them by upstream supply).
        """
        return want

    def ff_pipeline_entries(self) -> list[dict[str, list[Any]]]:
        """The produced-output dicts currently in the pipeline, in order."""
        return [produced for _ready, produced, _shape in self._pipeline]

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        """Perform ``count`` firings in one step.

        ``inputs`` holds exactly the items consumed, per port, in stream
        order.  The default materialises everything and loops
        :meth:`fire`; stages with a vectorised path override this — the
        results must be bit-identical to the looped path.
        """
        mats = {port: bulk.materialize() for port, bulk in inputs.items()}
        needed = self.required_inputs()
        for port, per_fire in needed.items():
            if len(mats.get(port, ())) != per_fire * count:
                raise DataflowError(
                    f"stage {self.name!r} fire_bulk: port {port!r} got "
                    f"{len(mats.get(port, ()))} items for {count} firings "
                    f"of {per_fire}"
                )
        firings = []
        for i in range(count):
            consumed = {
                port: mats[port][i * per: (i + 1) * per]
                for port, per in needed.items()
            }
            firings.append(dict(self.fire(cycle, consumed)))
        return ListFireResult(firings)

    def ff_commit(self, old_cycle: int, new_cycle: int, *, fires: int,
                  retired: int,
                  tail_outputs: list[dict[str, list[Any]]]) -> None:
        """Install the post-advance pipeline and counters.

        ``tail_outputs`` are the ``len(self._pipeline)`` output dicts left
        in flight at the end of the advance (pre-advance entries not yet
        retired, then the newest producing firings); by periodicity they
        slot into the pipeline with the same ready ages, in order, that
        the pre-advance entries had.
        """
        if len(tail_outputs) != len(self._pipeline):
            raise DataflowError(
                f"stage {self.name!r}: fast-forward pipeline mismatch "
                f"({len(tail_outputs)} tail firings vs "
                f"{len(self._pipeline)} entries)"
            )
        new_pipe: deque[tuple[int, dict[str, list[Any]], tuple]] = deque()
        for (ready, _old_prod, shape), produced in zip(self._pipeline,
                                                       tail_outputs):
            if tuple((p, len(v)) for p, v in produced.items()) != shape:
                raise DataflowError(
                    f"stage {self.name!r}: fast-forward entry shape changed "
                    f"(not a true steady state)"
                )
            new_pipe.append(
                (new_cycle + max(ready - old_cycle, 0), produced, shape))
        self._pipeline = new_pipe
        self._next_fire_cycle = new_cycle + max(
            self._next_fire_cycle - old_cycle, 0)
        self.stats.fires += fires
        self.stats.retired += retired

    def reset(self) -> None:
        """Clear simulation state (pipeline, counters, fire schedule)."""
        self._pipeline.clear()
        self._next_fire_cycle = 0
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, ii={self.ii}, latency={self.latency})"


class SourceStage(Stage):
    """Streams the items of an iterable into the graph, one per firing.

    Models the *read data* stage reading from external memory; the memory
    model can impose a larger II via ``ii`` to represent bandwidth limits.
    """

    input_ports: tuple[str, ...] = ()
    output_ports = ("out",)

    def __init__(self, name: str, items: Iterable[Any], *, ii: int = 1,
                 latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._iter = iter(items)
        self._exhausted = False
        self._buffer: deque[Any] = deque()

    def _prefetch(self, count: int) -> None:
        """Pull up to ``count`` items from the iterable into the buffer."""
        while len(self._buffer) < count and not self._exhausted:
            try:
                self._buffer.append(next(self._iter))
            except StopIteration:
                self._exhausted = True

    def exhausted(self) -> bool:
        self._prefetch(1)
        return not self._buffer

    def _try_fire(self, cycle: int) -> bool:
        if cycle < self._next_fire_cycle:
            self.stats.ii_waits += 1
            return False
        if len(self._pipeline) >= self.latency:
            self.stats.pipeline_full_stalls += 1
            return False
        if self.exhausted():
            return False
        item = self._buffer.popleft()
        self.stats.fires += 1
        self._next_fire_cycle = cycle + self.ii
        self._pipeline.append(
            (cycle + self.latency, {"out": [item]}, _ONE_OUT_SHAPE))
        return True

    def ff_signature(self, cycle: int) -> tuple | None:
        base = super().ff_signature(cycle)
        return base + (not self.exhausted(),) if base is not None else None

    def ff_fire_capacity(self, want: int) -> int:
        self._prefetch(want)
        return min(want, len(self._buffer))

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        self._prefetch(count)
        if len(self._buffer) < count:
            raise DataflowError(
                f"source {self.name!r}: fast-forward wants {count} items, "
                f"only {len(self._buffer)} remain"
            )
        items = [self._buffer.popleft() for _ in range(count)]
        return UniformFireResult({"out": ListBulk(items)})

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]):  # pragma: no cover
        raise DataflowError("SourceStage.fire should never be called")


class SinkStage(Stage):
    """Collects every item arriving on its input port.

    Models the *write data* stage writing results to external memory.
    """

    input_ports = ("in",)
    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str, *, ii: int = 1, latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.collected: list[Any] = []

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]):
        self.collected.extend(inputs["in"])
        return {}

    def reset(self) -> None:
        super().reset()
        self.collected.clear()


class FunctionStage(Stage):
    """Applies a callable to each input item, one output per input."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str, fn: Callable[[Any], Any], *, ii: int = 1,
                 latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._fn = fn

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]):
        return {"out": [self._fn(item) for item in inputs["in"]]}


class ConstStage(Stage):
    """Emits a fixed value ``count`` times (handy in unit tests)."""

    input_ports: tuple[str, ...] = ()
    output_ports = ("out",)

    def __init__(self, name: str, value: Any, count: int, *, ii: int = 1,
                 latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._value = value
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
        self._pipeline.append(
            (cycle + self.latency, {"out": [self._value]}, _ONE_OUT_SHAPE))
        return True

    def ff_signature(self, cycle: int) -> tuple | None:
        base = super().ff_signature(cycle)
        return base + (self._remaining > 0,) if base is not None else None

    def ff_fire_capacity(self, want: int) -> int:
        return min(want, self._remaining)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        if count > self._remaining:
            raise DataflowError(
                f"const {self.name!r}: fast-forward wants {count} firings, "
                f"only {self._remaining} remain"
            )
        self._remaining -= count
        return UniformFireResult({"out": ListBulk([self._value] * count)})

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]):  # pragma: no cover
        raise DataflowError("ConstStage.fire should never be called")
