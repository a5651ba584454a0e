"""Unified observability plane: spans, metrics, ops-per-cycle accounting.

The paper's results are *measurements* — per-kernel ops-per-cycle against
a 62.875 theoretical, XRT/OpenCL profiles of transfer/compute overlap —
and this package gives the reproduction the same instruments:

* :class:`Tracer` — span-based tracing on deterministic clocks (engine
  cycles, modelled seconds), with strided per-cycle FIFO occupancy and
  stage fire samples, exported as one Chrome/Perfetto JSON by
  :mod:`repro.observe.export`;
* :class:`MetricRegistry` — labelled counters/gauges/histograms, cheap
  when disabled;
* :mod:`repro.observe.opscycle` — achieved-vs-theoretical roofline
  accounting from measured engine statistics.

``repro trace`` and ``repro metrics`` are the CLI front ends; the
``bench_engine.py`` gate holds the compiled-in-but-disabled overhead of
the whole plane at <= 3%.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "Tracer",
    "Span",
    "Instant",
    "CounterSample",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "DEFAULT_BUCKETS",
    "OpsPerCycleReport",
    "flops_from_stats",
    "ops_per_cycle_report",
    "build_trace",
    "tracer_to_events",
    "write_trace",
]

_EXPORTS = LazyExports(__name__, {
    "repro.observe.export": ("build_trace", "tracer_to_events", "write_trace"),
    "repro.observe.metrics": ("DEFAULT_BUCKETS", "Counter", "Gauge",
                              "Histogram", "HistogramValue", "MetricRegistry"),
    "repro.observe.opscycle": ("OpsPerCycleReport", "flops_from_stats",
                               "ops_per_cycle_report"),
    "repro.observe.trace": ("CounterSample", "Instant", "Span", "Tracer"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
