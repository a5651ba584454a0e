"""Host wall-clock spans around public ``repro`` layer functions.

The traced child wraps each function in :data:`TARGETS`, rebinding every
module attribute that *is* the original (so ``from x import y`` copies
are covered too) and the class attribute for methods.  Nothing inside
``repro`` is edited.  Spans are kept in memory -- name, start, end,
parent and run id -- and written as one Chrome-trace JSON at the end.

A span's self time is its duration minus the time its child spans and
aggregated leaf calls cover.  Hot leaf functions (``plan_chunks``, tens
of thousands of calls in a tune run) are not recorded as spans: their
call count and time are added to the enclosing span.

A target that no longer exists is listed in :attr:`Recorder.missing` and
its metrics read 0; later changes may move code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    #: ordinal of the top-level library call this span belongs to.
    run: int
    #: a span of the same name is already open above this one.
    nested: bool
    end: float = 0.0
    #: aggregated leaf calls: name -> [calls, seconds].
    leaf: dict[str, list[float]] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Observer = Callable[["Recorder", Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``"module:qualname"`` plus its layer."""

    path: str
    name: str
    layer: str
    #: aggregate calls into the parent span instead of recording spans.
    leaf: bool = False
    #: reads counts off the return value.
    observe: Observer | None = None


class Recorder:
    """Records spans while :meth:`root` is open; idle wrappers pass through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.active = False
        self._stack: list[Span] = []
        self._runs = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            run = 0
        elif parent.parent is None:
            self._runs += 1
            run = self._runs
        else:
            run = parent.run
        span = Span(len(self.spans), name, layer, time.perf_counter(),
                    parent=None if parent is None else parent.id, run=run,
                    nested=any(open_.name == name for open_ in self._stack))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """Record everything called inside, under one span named ``root``."""
        self.active = True
        span = self._open("root", "root")
        try:
            yield
        finally:
            self._close(span)
            self.active = False

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        if target.leaf:
            @functools.wraps(original)
            def leaf(*args: Any, **kwargs: Any) -> Any:
                if not self.active:
                    return original(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    entry = self._stack[-1].leaf.setdefault(target.name,
                                                            [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start
            return leaf

        @functools.wraps(original)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return original(*args, **kwargs)
            span = self._open(target.name, target.layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if target.observe is not None:
                target.observe(self, result)
            return result
        return spanned

    def install(self, targets: tuple[Target, ...]) -> None:
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            *owner_path, attr = qualname.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target.path)
                continue
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = (vars(owner).get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if not callable(original):
                self.missing.append(target.path)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(module, key)
                           for module in list(sys.modules.values())
                           for key, value in list(getattr(module, "__dict__",
                                                          {}).items())
                           if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- accounting -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span (indexed by id): duration minus child-span and leaf time."""
        covered = [sum(seconds for _, seconds in span.leaf.values())
                   for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - covered[span.id] for span in self.spans]

    def totals(self) -> tuple[dict[str, float], dict[str, float],
                              dict[str, list[float]]]:
        """Per name: outermost total time, self time, and leaf [calls, s]."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        leaves: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            if not span.nested:
                total[span.name] = total.get(span.name, 0.0) + span.duration
            self_time[span.name] = self_time.get(span.name, 0.0) + own
            for name, (calls, seconds) in span.leaf.items():
                entry = leaves.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
        return total, self_time, leaves

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "host wall clock"},
        }]
        for span, own in zip(self.spans, self.self_times()):
            args: dict[str, Any] = {"id": span.id, "parent": span.parent,
                                    "run": span.run, "self_us": own * 1e6}
            for name, (calls, seconds) in span.leaf.items():
                args[f"{name}.calls"] = calls
                args[f"{name}.us"] = seconds * 1e6
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "pid": 1, "tid": 1, "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6, "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": metadata}))


# -- what is wrapped ------------------------------------------------------------

def _observe_engine(recorder: Recorder, stats: Any) -> None:
    recorder.count("dataflow.runs")
    recorder.count("dataflow.cycles", stats.cycles)
    recorder.count("dataflow.batched_cycles", stats.batched_cycles)
    recorder.count("dataflow.batched_windows", stats.batched_windows)
    recorder.count("dataflow.fallback_runs",
                   int(bool(stats.batch_fallback_reason)))


def _observe_simulate(recorder: Recorder, result: Any) -> None:
    recorder.count("kernel.chunks", len(result.chunk_stats))


def _observe_evaluate(recorder: Recorder, evaluation: Any) -> None:
    recorder.count("tune.evaluations")
    recorder.count("tune.feasible", int(evaluation.feasible))


def _observe_lint(recorder: Recorder, _report: Any) -> None:
    recorder.count("lint.calls")


def _observe_serve(recorder: Recorder, report: Any) -> None:
    from repro.serve import percentile

    counters = report.counters()
    recorder.count("serve.jobs", len(report.outcomes))
    recorder.count("serve.exact_served", counters["exact_served"])
    recorder.count("serve.degraded", counters["degraded"])
    recorder.count("serve.cache_hits", counters["cache_hits"])
    recorder.count("serve.modelled_p99_ms",
                   percentile(report.latencies, 0.99) * 1e3)
    recorder.count("serve.modelled_makespan_ms",
                   report.makespan_seconds * 1e3)


TARGETS: tuple[Target, ...] = (
    Target("repro.dataflow.engine:DataflowEngine.run", "DataflowEngine.run",
           "dataflow", observe=_observe_engine),
    Target("repro.dataflow.compiled:compile_graph", "compile_graph",
           "dataflow"),
    Target("repro.dataflow.compiled:execute_window", "execute_window",
           "dataflow"),
    Target("repro.kernel.simulate:simulate_kernel", "simulate_kernel",
           "kernel", observe=_observe_simulate),
    Target("repro.kernel.builder:build_advection_graph",
           "build_advection_graph", "kernel"),
    Target("repro.kernel.generic:run_stencil_kernel", "run_stencil_kernel",
           "kernel"),
    Target("repro.kernel.functional:execute_chunked", "execute_chunked",
           "kernel"),
    Target("repro.shiftbuffer.chunking:plan_chunks", "plan_chunks",
           "shiftbuffer", leaf=True),
    Target("repro.core.reference:advect_reference", "advect_reference",
           "core"),
    Target("repro.core.diffusion:diffuse_reference", "diffuse_reference",
           "core"),
    Target("repro.core.buoyancy:buoyancy_reference", "buoyancy_reference",
           "core"),
    Target("repro.tune.tuner:tune", "tune", "tune"),
    Target("repro.tune.cost:CostModel.evaluate", "CostModel.evaluate",
           "tune", observe=_observe_evaluate),
    Target("repro.tune.measure:measure_candidates", "measure_candidates",
           "tune"),
    Target("repro.lint.runner:lint_kernel", "lint_kernel", "lint",
           observe=_observe_lint),
    Target("repro.analyze.report:analyze_graph", "analyze_graph", "analyze"),
    Target("repro.analyze.kernel:static_kernel_cycles",
           "static_kernel_cycles", "analyze"),
    Target("repro.runtime.session:AdvectionSession.run",
           "AdvectionSession.run", "runtime"),
    Target("repro.serve.driver:run_load", "run_load", "serve",
           observe=_observe_serve),
    Target("repro.serve.admission:AdmissionController.decide",
           "AdmissionController.decide", "serve"),
    Target("repro.tune.admission:quote_job", "quote_job", "serve"),
    Target("repro.serve.job:fingerprint_fields", "fingerprint_fields",
           "serve"),
    Target("repro.serve.job:checksum_sources", "checksum_sources", "serve"),
    Target("repro.serve.job:JobSpec.fields", "JobSpec.fields", "serve"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac`` (parent-side)."""
    total, own, leaves = recorder.totals()
    counts = recorder.counts

    def t(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def c(name: str) -> float:
        return counts.get(name, 0)

    scalar_cycles = c("dataflow.cycles") - c("dataflow.batched_cycles")
    plan_calls, plan_seconds = leaves.get("plan_chunks", [0, 0.0])
    return {
        "dataflow.scalar_s": s("DataflowEngine.run"),
        "dataflow.window_s": t("execute_window"),
        "dataflow.compile_s": t("compile_graph"),
        "dataflow.runs": c("dataflow.runs"),
        "dataflow.cycles": c("dataflow.cycles"),
        "dataflow.scalar_cycles": scalar_cycles,
        "dataflow.batched_cycles": c("dataflow.batched_cycles"),
        "dataflow.batched_windows": c("dataflow.batched_windows"),
        "dataflow.fallback_runs": c("dataflow.fallback_runs"),
        "dataflow.batched_frac": _ratio(c("dataflow.batched_cycles"),
                                        c("dataflow.cycles")),
        "dataflow.scalar_cycles_per_s": _ratio(scalar_cycles,
                                               s("DataflowEngine.run")),
        "kernel.simulate_self_s": s("simulate_kernel"),
        "kernel.build_graph_s": t("build_advection_graph"),
        "kernel.chunks": c("kernel.chunks"),
        "kernel.stencil_self_s": s("run_stencil_kernel"),
        "kernel.functional_s": t("execute_chunked"),
        "shiftbuffer.plan_chunks_s": plan_seconds,
        "shiftbuffer.plan_chunks_calls": plan_calls,
        "core.reference_s": t("advect_reference", "diffuse_reference",
                              "buoyancy_reference"),
        "tune.search_self_s": s("tune"),
        "tune.evaluate_self_s": s("CostModel.evaluate"),
        "tune.measure_s": t("measure_candidates"),
        "tune.evaluations": c("tune.evaluations"),
        "tune.feasible_frac": _ratio(c("tune.feasible"),
                                     c("tune.evaluations")),
        "lint.kernel_self_s": s("lint_kernel"),
        "lint.calls": c("lint.calls"),
        "analyze.graph_s": t("analyze_graph"),
        "analyze.static_cycles_s": t("static_kernel_cycles"),
        "runtime.session_s": t("AdvectionSession.run"),
        "serve.scheduler_self_s": s("run_load"),
        "serve.admission_s": t("AdmissionController.decide"),
        "serve.quote_s": t("quote_job"),
        "serve.hash_s": t("fingerprint_fields", "checksum_sources"),
        "serve.fields_s": t("JobSpec.fields"),
        "serve.jobs": c("serve.jobs"),
        "serve.exact_served": c("serve.exact_served"),
        "serve.degraded": c("serve.degraded"),
        "serve.cache_hit_frac": _ratio(c("serve.cache_hits"),
                                       c("serve.jobs")),
        "serve.modelled_p99_ms": c("serve.modelled_p99_ms"),
        "serve.modelled_makespan_ms": c("serve.modelled_makespan_ms"),
        "trace.unattributed_s": s("root"),
    }
