"""Span-based tracing over deterministic clocks.

A :class:`Tracer` records *spans* — named intervals on named tracks — the
way the vendor profilers (Vitis Analyzer, Intel VTune, XRT's OpenCL
profiling) record engine occupancy.  Two properties distinguish it from a
wall-clock tracer:

* **Deterministic clocks.**  Time is whatever the instrumented component
  says it is — engine cycles for the dataflow simulator, modelled seconds
  for the host schedule — never ``time.monotonic()``.  Two runs of the
  same simulation produce byte-identical traces, so traces can be golden
  artefacts.
* **Cheap when disabled.**  Every recording method starts with one
  attribute check; a disabled tracer threaded through the whole stack
  costs a branch per *event site*, not per cycle (the engine hoists even
  that out of its tick loop — the ``bench_engine.py`` overhead gate holds
  the compiled-in-but-disabled cost at <= 3%).

Tracks are free-form strings ("engine", "read_data", "k0.advect_u",
"rank3"); the Chrome/Perfetto exporter maps each distinct track to one
timeline row, shared by every span, instant and counter sample that names
it.  See :mod:`repro.observe.export` for the single-file JSON export and
``docs/observability.md`` for the span model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ConfigurationError

__all__ = ["Span", "Instant", "CounterSample", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One named interval on one track (a Chrome "complete" event)."""

    name: str
    track: str
    start: float
    end: float
    category: str = ""
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker (a chunk seam, a batched-execution fallback)."""

    name: str
    track: str
    ts: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a numeric series (FIFO occupancy, ops in flight)."""

    name: str
    track: str
    ts: float
    values: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects spans, instants and counter samples on deterministic time.

    Parameters
    ----------
    enabled:
        When False every recording method is a single-branch no-op; the
        instrumentation stays compiled in and can be flipped on without
        touching call sites.
    clock:
        Zero-argument callable returning the current time in the
        tracer's native unit (engine cycles, modelled seconds).  Only the
        context-manager :meth:`span` reads it; explicit
        :meth:`add_span`/:meth:`instant` calls carry their own times.
    """

    def __init__(self, *, enabled: bool = True,
                 clock: Callable[[], float] | None = None) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.counters: list[CounterSample] = []
        self._clock = clock
        self._base = 0.0

    # -- clocks and offsets --------------------------------------------------

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Install the deterministic clock :meth:`span` reads."""
        self._clock = clock

    def now(self) -> float:
        """Current time per the installed clock (plus the active offset)."""
        if self._clock is None:
            raise ConfigurationError(
                "tracer has no clock installed; call use_clock() or pass "
                "explicit times to add_span()/instant()"
            )
        return self._clock() + self._base

    @contextmanager
    def shifted(self, delta: float) -> Iterator["Tracer"]:
        """Offset every time recorded inside the block by ``delta``.

        Used to place per-chunk engine runs (each starting at local cycle
        zero) end to end on one global cycle axis.
        """
        self._base += delta
        try:
            yield self
        finally:
            self._base -= delta

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, track: str, *, category: str = "",
             **args: Any) -> Iterator[None]:
        """Context manager: a span from clock-at-entry to clock-at-exit."""
        if not self.enabled:
            yield
            return
        start = self.now()
        try:
            yield
        finally:
            self.spans.append(Span(name=name, track=track, start=start,
                                   end=self.now(), category=category,
                                   args=dict(args)))

    def add_span(self, name: str, track: str, start: float, end: float, *,
                 category: str = "", **args: Any) -> None:
        """Record a span whose boundaries are already known."""
        if not self.enabled:
            return
        if end < start:
            raise ConfigurationError(
                f"span {name!r} on track {track!r} ends before it starts "
                f"({end} < {start})"
            )
        self.spans.append(Span(name=name, track=track,
                               start=start + self._base, end=end + self._base,
                               category=category, args=dict(args)))

    def instant(self, name: str, track: str, ts: float | None = None,
                **args: Any) -> None:
        """Record a zero-duration marker (``ts=None`` reads the clock)."""
        if not self.enabled:
            return
        when = self.now() if ts is None else ts + self._base
        self.instants.append(Instant(name=name, track=track, ts=when,
                                     args=dict(args)))

    def counter(self, name: str, track: str, ts: float,
                **values: float) -> None:
        """Record one sample of a counter series."""
        if not self.enabled:
            return
        self.counters.append(CounterSample(
            name=name, track=track, ts=ts + self._base,
            values={k: float(v) for k, v in values.items()}))

    # -- queries -------------------------------------------------------------

    def tracks(self) -> list[str]:
        """Distinct track names in first-recorded order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        for inst in self.instants:
            seen.setdefault(inst.track)
        for sample in self.counters:
            seen.setdefault(sample.track)
        return list(seen)

    def spans_on(self, track: str) -> list[Span]:
        return [s for s in self.spans if s.track == track]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.counters.clear()

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)
