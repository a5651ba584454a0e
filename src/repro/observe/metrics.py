"""A labelled metric registry: counters, gauges, histograms.

The shapes follow the conventions every serving stack's metric plane uses
(Prometheus naming, label sets per sample) so the simulator's numbers can
feed the same dashboards as a production deployment:

* **Counter** — monotonically non-decreasing; ``inc()`` with a negative
  amount raises, so aggregation downstream can assume monotonicity (the
  property test in ``tests/observe`` pins this).
* **Gauge** — last-write-wins value, plus a tracked maximum
  (``set_max``) for high-water marks such as FIFO occupancy.
* **Histogram** — fixed upper-bound buckets with count and sum;
  histogram *values* merge associatively (also property-tested), so
  per-chunk or per-rank histograms fold in any order.

Instruments are cheap when the registry is disabled: each recording call
is a single-branch no-op.  Per-cycle samples belong to the tracer
(:class:`~repro.observe.trace.Tracer`'s ``sample_every``); the registry
sees each engine run once, at its end.

Metric naming scheme (see ``docs/observability.md``): snake_case,
``<subsystem>_<quantity>[_<unit>]`` — ``engine_cycles``,
``stage_fires``, ``fifo_high_water``, ``kernel_ops_per_cycle`` — with
labels for the dimension (``stage=``, ``stream=``, ``kind=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "DEFAULT_BUCKETS",
]

#: Default histogram upper bounds: ratio-ish quantities (throughputs,
#: utilisations) and small counts both land usefully in them.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0, 5.0, 10.0,
)

#: Canonical key for one label set.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class HistogramValue:
    """Bucket counts + sum + count for one label set.

    ``merge`` is associative and commutative (bucket-wise addition), so a
    fleet of per-chunk/per-rank histograms folds in any order — the
    hypothesis suite pins the associativity.
    """

    bounds: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    #: observations above the last bound.
    overflow: int = 0
    total: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if tuple(sorted(self.bounds)) != tuple(self.bounds) or not self.bounds:
            raise ConfigurationError(
                f"histogram bounds must be non-empty and sorted, "
                f"got {self.bounds}"
            )
        if not self.counts:
            self.counts = [0] * len(self.bounds)
        elif len(self.counts) != len(self.bounds):
            raise ConfigurationError(
                f"histogram has {len(self.counts)} counts for "
                f"{len(self.bounds)} bounds"
            )

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.overflow += 1
        self.total += 1
        self.sum += value

    def merge(self, other: "HistogramValue") -> "HistogramValue":
        """Bucket-wise sum of two values over identical bounds."""
        if self.bounds != other.bounds:
            raise ConfigurationError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        return HistogramValue(
            bounds=self.bounds,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            overflow=self.overflow + other.overflow,
            total=self.total + other.total,
            sum=self.sum + other.sum,
        )

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.total,
            "sum": self.sum,
        }


class _Instrument:
    """Base: name, help text, per-label-set samples."""

    kind = "untyped"

    def __init__(self, registry: "MetricRegistry", name: str,
                 help: str = "") -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self._samples: dict[LabelKey, Any] = {}

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def labelsets(self) -> list[LabelKey]:
        return list(self._samples)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": self._sample_value(value)}
                for key, value in sorted(self._samples.items())
            ],
        }

    def _sample_value(self, value: Any) -> Any:
        return value


class Counter(_Instrument):
    """Monotonically non-decreasing, per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r}: negative increment {amount} "
                f"(counters are monotone; use a gauge)"
            )
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return float(self._samples.get(_label_key(labels), 0.0))


class Gauge(_Instrument):
    """Last-write-wins value, per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        self._samples[_label_key(labels)] = float(value)

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the maximum seen — the high-water-mark idiom."""
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        if key not in self._samples or value > self._samples[key]:
            self._samples[key] = float(value)

    def value(self, **labels: Any) -> float:
        return float(self._samples.get(_label_key(labels), 0.0))


class Histogram(_Instrument):
    """Fixed-bucket distribution, per label set."""

    kind = "histogram"

    def __init__(self, registry: "MetricRegistry", name: str,
                 help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, help)
        self.bounds = tuple(float(b) for b in buckets)
        if tuple(sorted(self.bounds)) != self.bounds or not self.bounds:
            raise ConfigurationError(
                f"histogram {name!r}: buckets must be non-empty and "
                f"sorted, got {self.bounds}"
            )

    def observe(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        if key not in self._samples:
            self._samples[key] = HistogramValue(bounds=self.bounds)
        self._samples[key].observe(value)

    def value(self, **labels: Any) -> HistogramValue:
        key = _label_key(labels)
        if key not in self._samples:
            return HistogramValue(bounds=self.bounds)
        return self._samples[key]

    def _sample_value(self, value: HistogramValue) -> Any:
        return value.to_dict()


class MetricRegistry:
    """Owns a namespace of instruments.

    Parameters
    ----------
    enabled:
        When False every instrument's recording call is a one-branch
        no-op; instruments can still be created and wired.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, _Instrument] = {}

    # -- instrument factories (idempotent per name) --------------------------

    def _get(self, name: str, kind: type, help: str,
             **kwargs: Any) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind.kind}"  # type: ignore[attr-defined]
                )
            return existing
        instrument = kind(self, name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, help,  # type: ignore[return-value]
                         buckets=buckets)

    # -- output --------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of every instrument, sorted by name."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }

    def render_text(self) -> str:
        """Prometheus-exposition-flavoured text dump."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            for entry in inst.to_dict()["samples"]:
                labels = entry["labels"]
                label_str = ("{" + ",".join(
                    f'{k}="{v}"' for k, v in labels.items()) + "}"
                    if labels else "")
                value = entry["value"]
                if isinstance(value, dict):  # histogram
                    lines.append(
                        f"{name}_count{label_str} {value['count']}")
                    lines.append(f"{name}_sum{label_str} {value['sum']:g}")
                else:
                    lines.append(f"{name}{label_str} {value:g}")
        return "\n".join(lines)
