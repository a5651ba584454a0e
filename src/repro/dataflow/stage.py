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
separated from the functional behaviour.  Every input port takes one
item per firing.  What a firing emits is declared once, as the stage's
*emission schedule*: :meth:`Stage.emits` gives the items each output
port gets on the stage's i-th firing, :meth:`Stage.regime` the key that
makes that count periodic, and :meth:`Stage.regime_left` the firings
left before the key stops describing it.  The base stage emits one
item per port in a single regime; a stage that emits otherwise (the
shift buffer's column-top pair, a stencil window's boundary results)
declares its own, and the static analyzer (:mod:`repro.analyze`) and
its token twin read the declaration instead of the data; so does the
engine, through the base ``ff_*`` hooks, which read the regime at the
firing count.  The ``ff_*`` hooks and :meth:`Stage.fire_bulk` let the
engine's batched execution advance whole steady-state periods at once
(see :mod:`repro.dataflow.engine`).

A stage fires from a plan fixed when its ports are bound: the bound
input streams in port order, and the set of declared output ports a
firing's products are checked against.  A firing builds no bookkeeping
dict or set of its own.  Its results wait in a :class:`Pipeline`, which
records the parts of the stage's control key for the results that fired
since its last key, so a batched run's fingerprint costs two deque
copies per stage, however deep the pipeline.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sized

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
    "Pipeline",
    "Stage",
    "StageStats",
    "SourceStage",
    "SinkStage",
    "FunctionStage",
    "ConstStage",
]

#: Cached entry shape for single-item "out"-port firings (sources).
_ONE_OUT_SHAPE = (("out", 1),)

#: What ``next`` returns from a drained source iterator.
_END = object()

#: Entry shape -> id, so that pipeline keys hash and compare small ints.
#: Process-wide, so two stages (or two runs) give one shape one id.  Keys
#: only compare ids for equality, so the order in which shapes are first
#: seen, by this run or an earlier one, changes no key's meaning.  Ids
#: start at 1, so ``_SHAPE_IDS.get(shape) or _shape_id(shape)`` may skip
#: a call.
_SHAPE_IDS: dict[tuple, int] = {}
_NEW_SHAPE_IDS = itertools.count(1)


def _shape_id(shape: tuple) -> int:
    """The id of an entry shape, interned on first sight."""
    sid = _SHAPE_IDS.get(shape)
    if sid is None:
        # Both calls are atomic: racing threads never share an id.
        sid = _SHAPE_IDS.setdefault(shape, next(_NEW_SHAPE_IDS))
    return sid


class Pipeline(deque):
    """A stage's in-flight results, oldest first, with their control key.

    Entries are ``(ready_cycle, produced, shape)`` tuples: the cycle the
    result may retire, the produced items per output port, and the
    per-port item counts ``((port, count), ...)``, computed once at fire
    time.  A firing appends a new entry and retirement pops the oldest,
    both plain C-level deque operations, so forced-scalar ticking pays
    nothing for the key.  Ready cycles never decrease: a stage's latency
    is fixed, and :meth:`Stage.ff_commit` clamps overdue entries to one
    cycle, which leaves gaps of 0.

    Beside the entries the pipeline keeps, in two deques bounded by the
    stage's latency, each entry's gap from the previous entry's ready
    cycle and its interned shape id.  :meth:`key` brings them up to date
    with the entries appended since the last key (one or two a cycle on
    a scalar cycle of a batched run) and then copies them.  A pipeline
    never holds more entries than its latency, and entries leave oldest
    first, so the last ``n`` ids and the last ``n - 1`` gaps are always
    those of the ``n`` entries in flight, whatever was popped or cleared.
    """

    __slots__ = ("gaps", "shapes", "_newest")

    def __init__(self, latency: int) -> None:
        super().__init__()
        #: ``ready - previous ready`` per recorded entry, newest last
        #: (``latency - 1`` of them: a full pipeline's gaps, uncut).
        self.gaps: deque[int] = deque(maxlen=latency - 1)
        #: The shape id per recorded entry, newest last.
        self.shapes: deque[int] = deque(maxlen=latency)
        # The newest entry the two deques record.  Holding it keeps its
        # identity unique, so an ``is`` test finds where recording stopped.
        self._newest: tuple | None = None

    def _record(self) -> None:
        """Record the gap and shape id of every entry appended since the
        newest recorded one (all entries, after a clear)."""
        newest = self._newest
        start = len(self) - 1
        while start >= 0 and self[start] is not newest:
            start -= 1
        # An entry whose predecessor left takes a stale gap: it is the
        # head, whose gap no key reads.
        ready = newest[0] if newest is not None else 0
        gaps, shapes = self.gaps, self.shapes
        for index in range(start + 1, len(self)):
            entry = self[index]
            gaps.append(entry[0] - ready)
            ready = entry[0]
            shapes.append(_SHAPE_IDS.get(entry[2]) or _shape_id(entry[2]))
        self._newest = self[-1]

    def key(self, cycle: int) -> tuple:
        """The pipeline's control state at ``cycle``, hashable.

        It is ``(head age, age steps, shape ids)``: the oldest entry's
        age ``max(ready - cycle, 0)``, the difference between each later
        entry's age and its predecessor's, and every entry's shape id.
        That is a one-to-one recoding of the per-entry
        ``((max(ready - cycle, 0), shape), ...)``, so two states share a
        key exactly when their entries have equal clamped ages and equal
        shapes.  Ages are clamped at zero because an overdue entry
        behaves identically however long it has been due.  Unless the
        head is overdue, the steps are the recorded gaps.  Besides
        recording the entries appended since the last key, the only
        Python loop over entries walks the overdue prefix
        (``ready < cycle``), which is empty unless the output stream is
        full.
        """
        n = len(self)
        if not n:
            return (0, (), ())
        if self[-1] is not self._newest:
            self._record()
        gaps = tuple(self.gaps)[len(self.gaps) - n + 1:]
        shapes = tuple(self.shapes)[-n:]
        head = self[0][0]
        if head >= cycle:
            return (head - cycle, gaps, shapes)
        overdue = 1
        ready = head
        for gap in gaps:
            ready += gap
            if ready >= cycle:
                break
            overdue += 1
        steps = (0,) * (overdue - 1)
        if overdue < n:
            # The first entry not yet due steps up from age 0 to its own.
            steps += (ready - cycle,) + gaps[overdue:]
        return (0, steps, shapes)


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
        self._pipeline = Pipeline(latency)
        self._next_fire_cycle = 0
        # The firing plan, fixed by _plan() whenever a port is bound:
        # ``(port, stream)`` per bound input in declared order, and the
        # declared output ports.  Some stages (SpecStage) set their
        # ports after this constructor, so nothing is fixed here.
        self._in_plan: list[tuple[str, Stream]] = []
        self._out_ports: frozenset[str] = frozenset()
        # Only a class that declares a regime pays for its key.
        self._declares_regime = type(self).regime is not Stage.regime

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
        self._plan()

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
        self._plan()

    def _plan(self) -> None:
        """Fix the firing plan from the ports bound so far."""
        self._in_plan = [(port, self.inputs[port])
                         for port in self.input_ports if port in self.inputs]
        self._out_ports = frozenset(self.output_ports)

    # -- behaviour hooks --------------------------------------------------------

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

    def finish(self) -> None:
        """End-of-run hook: complete any work this stage deferred.

        :meth:`DataflowEngine.run <repro.dataflow.engine.DataflowEngine.
        run>` calls it on every stage once a run ends, however it ends:
        at quiescence, after a :class:`~repro.dataflow.engine.
        ControlRecord` replay, or with an error on its way out.  The
        kernels' write stages evaluate the result runs they stored here,
        so their output arrays are complete when the run returns, and
        hold what the stage wrote when it raises.  Timing never depends
        on it.  The base stage defers nothing.
        """

    # -- emission schedule -------------------------------------------------------

    def emits(self, firing: int) -> tuple[int, ...]:
        """Items each output port gets on firing ``firing`` (from 0).

        One count per port, in :attr:`output_ports` order; a firing that
        emits nothing on every port produces no pipeline entry.  The
        count must be what :meth:`fire` returns on that firing, whatever
        the data: the proof and the token twin read this, never
        :meth:`fire`.  The base stage emits one item per port.
        """
        return (1,) * len(self.output_ports)

    def regime(self, firing: int) -> tuple:
        """The schedule's regime key at firing ``firing``.

        Two firings with one key emit alike, firing for firing, until
        the regime ends (:meth:`regime_left`), so the key, beside the
        stage's timing state, is what a proof of periodicity compares
        (:meth:`ff_signature`).  The base stage has a single regime.
        """
        return ()

    def regime_left(self, firing: int) -> int | None:
        """Firings from ``firing`` on that stay in its regime (``None``:
        the regime never ends)."""
        return None

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
        for _port, stream in self._in_plan:
            if stream.can_pop():
                return False
        return True

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
        # All destinations must have room for everything this firing
        # produced, checked in the firing's port order: the first full
        # stream takes the stall.
        outputs = self.outputs
        for port, items in produced.items():
            stream = outputs[port]
            if not stream.can_push(len(items)):
                stream.note_full_stall()
                self.stats.output_stalls += 1
                return False
        for port, items in produced.items():
            stream = outputs[port]
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
        in_plan = self._in_plan
        if not self.input_ports and self.exhausted():
            return False
        for _port, stream in in_plan:
            if not stream.can_pop():
                stream.note_empty_stall()
                self.stats.input_stalls += 1
                return False
        produced = self.fire(cycle, {port: [stream.pop()]
                                     for port, stream in in_plan})
        if type(produced) is not dict:
            produced = dict(produced)
        for port in produced:
            if port not in self._out_ports:
                raise DataflowError(
                    f"stage {self.name!r} produced on undeclared ports "
                    f"{sorted(set(produced) - self._out_ports)}"
                )
        self.stats.fires += 1
        self._next_fire_cycle = cycle + self.ii
        if produced:
            self._pipeline.append((
                cycle + self.latency, produced,
                tuple([(p, len(v)) for p, v in produced.items()]),
            ))
        return True

    def blocked_reason(self, cycle: int) -> str | None:
        """Why this stage cannot progress at ``cycle``, or ``None``.

        Read in :meth:`_retire` then :meth:`_try_fire` order, after the
        cycle's ticks: a matured result that a full stream refuses, a
        pipeline as deep as it is long behind it, or an empty input
        stream.  A stage that is idle or waiting out its II is not
        blocked.  The static analyzer's stall witnesses quote it.
        """
        pipeline = self._pipeline
        if pipeline and pipeline[0][0] <= cycle:
            for port, items in pipeline[0][1].items():
                stream = self.outputs[port]
                count = len(items)
                if not stream.can_push(count):
                    return (f"cannot retire {count} item"
                            f"{'s' if count > 1 else ''}: stream "
                            f"{stream.name!r} holds "
                            f"{stream.occupancy}/{stream.depth}")
        if cycle < self._next_fire_cycle:
            return None
        if len(pipeline) >= self.latency:
            return "pipeline full behind a blocked exit"
        for _port, stream in self._in_plan:
            if not stream.can_pop():
                return f"starved: stream {stream.name!r} empty"
        return None

    def tick(self, cycle: int) -> bool:
        """Advance one cycle: retire then fire.  Returns True on progress."""
        progressed = self._retire(cycle)
        progressed |= self._try_fire(cycle)
        return progressed

    # -- batched-window hooks (see DataflowEngine, batched=True) ---------------

    def ff_signature(self, cycle: int) -> tuple | None:
        """Hashable summary of all *control* state, or None to veto.

        The batched engine detects steady state by finding two cycles
        with identical control state: pipeline fill (entry ages and output
        shapes), the II timer, and any subclass state that influences
        *when* or *how many* items the stage produces.  That state may be
        summarised per control regime, paired with a
        :meth:`ff_fire_capacity` that ends windows at the regime's edge.
        Data values must not influence control for the analytic advance
        to be exact; a stage whose output counts depend on input values
        must override this to return ``None`` (vetoing batched windows
        for the rest of the run).

        The base signature is ``(II wait, pipeline key)``, plus the
        :meth:`regime` at the firing count if the class declares one.
        The II wait is clamped at zero, and so are ready ages: an
        overdue pipeline entry behaves identically however long it has
        been due.  The pipeline records its key's parts for each entry
        once (:meth:`Pipeline.key`: the head's age, the age steps and
        the entry shape ids), so this builds no tuple per entry, although
        it runs once per scalar cycle of a batched run.
        """
        wait = self._next_fire_cycle - cycle
        signature = (wait if wait > 0 else 0, self._pipeline.key(cycle))
        if self._declares_regime:
            return signature + self.regime(self.stats.fires)
        return signature

    def ff_fire_capacity(self, want: int) -> int:
        """How many of ``want`` firings may run before a regime change.

        Returns the number of firings before this stage either runs out
        of supply or leaves the control regime its :meth:`ff_signature`
        describes.  The engine floors every batched window to this many
        firings, which is what keeps a coarse signature sound: a
        signature may omit state (a source's position, the shift
        buffer's X plane) as long as every firing up to this bound
        behaves alike.  Sources bound it by their remaining items, the
        base stage by :meth:`regime_left` at its firing count (none in
        a single regime: the engine bounds it by upstream supply).
        """
        left = self.regime_left(self.stats.fires)
        return want if left is None else min(want, left)

    def ff_inner_signature(self, cycle: int, outer: tuple) -> tuple | None:
        """Control summary in a finer *inner* regime, or ``None``.

        A stage whose :meth:`ff_signature` regime has a long period may
        also describe a shorter-period regime nested inside it (the
        shift buffer's one-column period inside its one-plane period).
        The engine hunts that key too, with this signature in place of
        :meth:`ff_signature`, and bounds its windows by
        :meth:`ff_inner_capacity`.  ``outer`` is this stage's
        :meth:`ff_signature` at ``cycle``, built once per cycle for both
        keys, so an inner signature reuses its pipeline part instead of
        building it again.  ``None`` (the default) means the stage is in
        no inner regime now; the engine calls this only on stages that
        override it.
        """
        return None

    def ff_inner_capacity(self, want: int) -> int:
        """:meth:`ff_fire_capacity` for the :meth:`ff_inner_signature`
        regime: firings before the stage leaves it or runs dry."""
        return self.ff_fire_capacity(want)

    def ff_structure(self) -> tuple | None:
        """This stage's static control parameters, or ``None``.

        Two runs whose stages all return equal structures (and whose
        streams match) follow one control trajectory, whatever data they
        stream: the engine then replays a run from a
        :class:`~repro.dataflow.engine.ControlRecord` instead of ticking
        it.  ``None`` (the default) opts the run out of recording and
        replay; a stage whose control could depend on data, or on state
        its constructor does not fix, must keep it.
        """
        return None

    def _structure(self, *extra: Any) -> tuple:
        """The base :meth:`ff_structure`: class, name, II and latency,
        plus ``extra`` subclass parameters."""
        return (type(self), self.name, self.ii, self.latency) + extra

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
        ports = self.input_ports
        for port in ports:
            if len(mats.get(port, ())) != count:
                raise DataflowError(
                    f"stage {self.name!r} fire_bulk: port {port!r} got "
                    f"{len(mats.get(port, ()))} items for {count} firings "
                    f"of 1"
                )
        firings = []
        for i in range(count):
            firings.append(dict(self.fire(
                cycle, {port: [mats[port][i]] for port in ports})))
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
        pipeline = self._pipeline
        if len(tail_outputs) != len(pipeline):
            raise DataflowError(
                f"stage {self.name!r}: batched window pipeline mismatch "
                f"({len(tail_outputs)} tail firings vs "
                f"{len(pipeline)} entries)"
            )
        shifted = []
        for (ready, _old_prod, shape), produced in zip(pipeline,
                                                       tail_outputs):
            if tuple((p, len(v)) for p, v in produced.items()) != shape:
                raise DataflowError(
                    f"stage {self.name!r}: batched window entry shape changed "
                    f"(not a true steady state)"
                )
            shifted.append((new_cycle + max(ready - old_cycle, 0), produced,
                            shape))
        pipeline.clear()
        pipeline.extend(shifted)
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

    The iterable is pulled through its iterator in runs
    (``itertools.islice``), as firings and windows need items.
    """

    input_ports: tuple[str, ...] = ()
    output_ports = ("out",)

    def __init__(self, name: str, items: Iterable[Any], *, ii: int = 1,
                 latency: int = 1) -> None:
        super().__init__(name, ii=ii, latency=latency)
        #: The item count when ``items`` is sized, for :meth:`ff_structure`.
        self._count = len(items) if isinstance(items, Sized) else None
        # The items not yet fired are ``_pending[_head:]``.
        self._pending: list[Any] = []
        self._iter: Iterator[Any] | None = iter(items)
        self._head = 0

    def _prefetch(self, count: int) -> None:
        """Pull items from the iterable until ``count`` are pending, or
        it runs dry."""
        pending = len(self._pending) - self._head
        if pending >= count or self._iter is None:
            return
        short = count - pending
        if short == 1:
            # A scalar firing's one item: next() costs less than islice.
            item = next(self._iter, _END)
            pulled = [] if item is _END else [item]
        else:
            pulled = list(itertools.islice(self._iter, short))
        if len(pulled) < short:
            self._iter = None
        self._pending = (self._pending[self._head:] + pulled if pending
                         else pulled)
        self._head = 0

    def exhausted(self) -> bool:
        if self._head < len(self._pending):
            return False
        self._prefetch(1)
        return self._head >= len(self._pending)

    def _try_fire(self, cycle: int) -> bool:
        if cycle < self._next_fire_cycle:
            self.stats.ii_waits += 1
            return False
        if len(self._pipeline) >= self.latency:
            self.stats.pipeline_full_stalls += 1
            return False
        if self.exhausted():
            return False
        item = self._pending[self._head]
        self._head += 1
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
        return min(want, len(self._pending) - self._head)

    def ff_structure(self) -> tuple | None:
        # An unsized iterable hides how many firings the run makes.
        return None if self._count is None else self._structure(self._count)

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        self._prefetch(count)
        start = self._head
        remaining = len(self._pending) - start
        if remaining < count:
            raise DataflowError(
                f"source {self.name!r}: batched window wants {count} items, "
                f"only {remaining} remain"
            )
        self._head += count
        return UniformFireResult(
            {"out": ListBulk(self._pending[start:self._head])})

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
                f"const {self.name!r}: batched window wants {count} firings, "
                f"only {self._remaining} remain"
            )
        self._remaining -= count
        return UniformFireResult({"out": ListBulk([self._value] * count)})

    def fire(self, cycle: int, inputs: Mapping[str, list[Any]]):  # pragma: no cover
        raise DataflowError("ConstStage.fire should never be called")
