"""Cross-mode conformance: every scenario, both execution paths, bitwise.

The repo's core claim is that its two execution paths — forced-scalar
exact and batched exact — are *indistinguishable*: same outputs byte
for byte, same cycle counts, same stats, same fault traces.  This
harness proves that for **every registered scenario**, so no kernel can
join the suite without inheriting the guarantee.

Per scenario, five checks run on the grid family's small shape:

``reference``
    Forced-scalar exact output equals the NumPy reference bitwise, for
    every batch.
``batched``
    Batched exact equals forced-scalar: outputs, cycle counts, and the
    full stats dict minus the batching bookkeeping keys
    (``batched_windows``/``batched_cycles``/``batch_fallback_reason``).
    Kernels whose stages are data-dependent (``batch_admissible =
    False``) must additionally *record* a ``batch_fallback_reason`` — a
    silent pretend-batched run would be a correctness bug, not a
    feature.
``fault``
    One injected fault plan per scenario, identical seed, run under
    forced-scalar and batched execution: both legs must end in the same
    state (bit-identical outputs after recovery, or the same typed
    error) with identical fault traces.
``lint``
    The scenario's dataflow graph and config raise no lint errors.
``analyze``
    The static verifier proves the graph deadlock-free at the ideal
    steady-state rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.fields import SOURCE_NAMES, SourceSet
from repro.core.grid import Grid
from repro.errors import ReproError
from repro.scenarios.base import Scenario, ScenarioResult

__all__ = [
    "CheckResult",
    "ScenarioConformance",
    "ConformanceReport",
    "run_conformance",
    "run_suite",
    "STATS_BATCH_KEYS",
]

#: Stats keys that legitimately differ between scalar and batched runs
#: (the batching bookkeeping itself).
STATS_BATCH_KEYS: frozenset[str] = frozenset(
    {"batched_windows", "batched_cycles", "batch_fallback_reason"})

#: The check names, in execution order.
CHECKS: tuple[str, ...] = ("reference", "batched", "fault", "lint",
                           "analyze")


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict for one scenario."""

    scenario: str
    check: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"scenario": self.scenario, "check": self.check,
                "ok": self.ok, "detail": self.detail}


@dataclass
class ScenarioConformance:
    """All of one scenario's check results."""

    scenario: str
    grid: Grid
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "grid": [self.grid.nx, self.grid.ny, self.grid.nz],
            "ok": self.ok,
            "checks": [result.to_dict() for result in self.results],
        }


@dataclass
class ConformanceReport:
    """The whole suite's verdict (one entry per scenario)."""

    entries: list[ScenarioConformance] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok,
                "scenarios": [entry.to_dict() for entry in self.entries]}

    def render_text(self) -> str:
        lines = []
        for entry in self.entries:
            verdict = "ok" if entry.ok else "FAIL"
            checks = " ".join(
                f"{result.check}={'ok' if result.ok else 'FAIL'}"
                for result in entry.results)
            lines.append(f"{entry.scenario:>20}  [{verdict}]  {checks}")
            for result in entry.results:
                if not result.ok:
                    lines.append(f"{'':>22}  {result.check}: "
                                 f"{result.detail}")
        lines.append("")
        good = sum(entry.ok for entry in self.entries)
        lines.append(f"conformance: {good}/{len(self.entries)} scenarios "
                     f"bit-identical across modes")
        return "\n".join(lines)


def _identical(a: SourceSet, b: SourceSet) -> bool:
    """Byte-for-byte equality of two source sets."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in SOURCE_NAMES)


def _batches_identical(a: ScenarioResult, b: ScenarioResult) -> bool:
    return len(a.batches) == len(b.batches) and all(
        _identical(x, y) for x, y in zip(a.batches, b.batches))


def _stats_minus_batching(result: ScenarioResult) -> dict[str, Any]:
    return {key: value for key, value in result.stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}


def _faulted_leg(scenario: Scenario, grid: Grid, seed: int, *,
                 batched: bool) -> tuple[ScenarioResult | None,
                                         str | None, tuple]:
    """One faulted run: (result, error string, fault trace key)."""
    plan = scenario.fault_plan(seed)
    try:
        result = scenario.run(grid, seed=seed, mode="exact",
                              batched=batched, fault_plan=plan)
        return result, None, plan.trace_key()
    except ReproError as error:
        return None, f"{type(error).__name__}: {error}", plan.trace_key()


def run_conformance(scenario: Scenario, *, grid: Grid | None = None,
                    seed: int = 0) -> ScenarioConformance:
    """Run every conformance check for one scenario."""
    if grid is None:
        grid = scenario.small_grid()
    entry = ScenarioConformance(scenario=scenario.name, grid=grid)

    def record(check: str, ok: bool, detail: str = "") -> None:
        entry.results.append(CheckResult(
            scenario=scenario.name, check=check, ok=ok,
            detail=detail if not ok else ""))

    # The baseline every mode is held to: the forced-scalar exact run.
    scalar = scenario.run(grid, seed=seed, mode="exact", batched=False)

    references = scenario.reference(grid, seed=seed)
    ref_ok = len(references) == len(scalar.batches) and all(
        _identical(out, ref)
        for out, ref in zip(scalar.batches, references))
    record("reference", ref_ok,
           "forced-scalar output differs from the NumPy reference")

    batched = scenario.run(grid, seed=seed, mode="exact", batched=True)
    problems = []
    if not _batches_identical(scalar, batched):
        problems.append("outputs differ")
    if scalar.total_cycles != batched.total_cycles:
        problems.append(f"cycles differ ({scalar.total_cycles} vs "
                        f"{batched.total_cycles})")
    if _stats_minus_batching(scalar) != _stats_minus_batching(batched):
        problems.append("stats differ beyond batching bookkeeping")
    if not scenario.kernel.batch_admissible \
            and not batched.stats.batch_fallback_reason:
        problems.append("data-dependent kernel batched without "
                        "recording a fallback reason")
    record("batched", not problems, "; ".join(problems))

    scalar_f, scalar_err, scalar_trace = _faulted_leg(
        scenario, grid, seed, batched=False)
    batched_f, batched_err, batched_trace = _faulted_leg(
        scenario, grid, seed, batched=True)
    problems = []
    if scalar_trace != batched_trace:
        problems.append("fault traces diverge between scalar and batched")
    if (scalar_err is None) != (batched_err is None):
        problems.append(f"one leg errored, the other did not "
                        f"({scalar_err!r} vs {batched_err!r})")
    elif scalar_err is not None:
        if scalar_err != batched_err:
            problems.append(f"typed errors differ ({scalar_err!r} vs "
                            f"{batched_err!r})")
    else:
        assert scalar_f is not None and batched_f is not None
        if not _batches_identical(scalar_f, batched_f):
            problems.append("recovered outputs differ")
        # Recovery must also restore the fault-free result bitwise
        # when the kernel has a checkpoint/restart layer.
        if scalar_trace and scenario.kernel.kind == "advection" \
                and not _batches_identical(scalar_f, scalar):
            problems.append("recovered output differs from the "
                            "fault-free golden run")
    record("fault", not problems, "; ".join(problems))

    lint_report = scenario.lint(grid)
    record("lint", not lint_report.errors,
           "; ".join(f"{diag.code}: {diag.message}"
                     for diag in lint_report.errors))

    analysis = scenario.analyze(grid)
    record("analyze", analysis.ok,
           "static analysis did not prove deadlock-freedom at the "
           "ideal rate")
    return entry


def run_suite(names: tuple[str, ...] | None = None, *,
              seed: int = 0) -> ConformanceReport:
    """Run the conformance harness over the (selected) registry."""
    from repro.scenarios import registry

    selected = names if names is not None else registry.names()
    report = ConformanceReport()
    for name in selected:
        report.entries.append(run_conformance(registry.get(name),
                                              seed=seed))
    return report
