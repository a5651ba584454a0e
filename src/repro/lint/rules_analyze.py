"""Analysis-family lint rules (``SA``): proved dataflow properties.

Where the ``DF`` family reasons about structure, the ``SA`` rules
consume the static verifier's proof objects (:mod:`repro.analyze`): the
diagnostics below are facts about the abstract machine's exact
trajectory, read off every stage's declared emission schedule, each
carrying a concrete witness, not heuristics.

The analysis runs once per lint pass and is shared between the rules via
``context.extras``; a caller that already holds the proof passes it as
``context.analysis`` and none runs.  Graphs with structural errors
(unconnected ports, cycles, empty regions) are not analyzable; the SA
rules stay silent and let ``DF001``–``DF003`` report the root cause.
"""

from __future__ import annotations

from typing import Iterable

from repro.analyze.occupancy import OVERPROVISION_SLACK
from repro.analyze.report import AnalysisReport, analyze_graph
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.registry import LintContext, rule

__all__ = []  # rules register themselves; nothing to re-export

_EXTRAS_KEY = "sa_analysis"


def _analysis(context: LintContext) -> AnalysisReport | None:
    """The shared per-run analysis (None: graph not analyzable)."""
    if _EXTRAS_KEY not in context.extras:
        graph = context.graph
        assert graph is not None
        if any(d.severity is Severity.ERROR
               for d in graph.structural_diagnostics()):
            context.extras[_EXTRAS_KEY] = None
        elif context.analysis is not None:
            context.extras[_EXTRAS_KEY] = context.analysis
        else:
            context.extras[_EXTRAS_KEY] = analyze_graph(graph)
    report: AnalysisReport | None = context.extras[_EXTRAS_KEY]
    return report


@rule("SA401", name="proved-rate-collapse", family="analysis",
      description="the abstract machine must sustain the graph's ideal "
                  "steady-state period; a proved deadlock or a proved "
                  "period worse than the ideal one is a design error",
      requires=("graph",), severity=Severity.ERROR)
def check_proved_rate(context: LintContext) -> Iterable[Diagnostic]:
    report = _analysis(context)
    if report is None:
        return
    occ = report.occupancy
    witness = occ.witness
    if occ.deadlock is not None:
        yield Diagnostic(
            code="SA401", severity=Severity.ERROR,
            message=f"proved deadlock: {occ.deadlock.describe()}",
            location=Location("graph", report.graph_name),
            hint="apply the minimal stall-free FIFO depths "
                 "(repro analyze --fix-depths)",
        )
        return
    if not occ.throughput_collapsed:
        return
    assert occ.period is not None
    under = [name for name, proof in sorted(occ.streams.items())
             if proof.verdict == "under"]
    fixes = ", ".join(f"{name}: {occ.streams[name].min_safe}"
                      for name in under)
    where = (Location("stream", under[0]) if under
             else Location("graph", report.graph_name))
    detail = f"; witness: {witness.describe()}" if witness else ""
    yield Diagnostic(
        code="SA401", severity=Severity.ERROR,
        message=(
            f"proved throughput collapse: steady state moves "
            f"{occ.period.tokens_per_period} token(s) every "
            f"{occ.period.cycles} cycle(s) against an ideal period of "
            f"{occ.ideal_period}; under-depth stream(s): "
            f"{', '.join(under) or 'none'}{detail}"
        ),
        location=where,
        hint=f"raise FIFO depths to the proved minimal stall-free values "
             f"({fixes}) or run repro analyze --fix-depths",
    )


@rule("SA402", name="under-minimal-depth", family="analysis",
      description="every FIFO should hold the proved worst-case "
                  "occupancy of an unthrottled run; shallower FIFOs "
                  "provably stall their producer",
      requires=("graph",), severity=Severity.WARNING)
def check_minimal_depths(context: LintContext) -> Iterable[Diagnostic]:
    report = _analysis(context)
    if report is None:
        return
    occ = report.occupancy
    for name, proof in sorted(occ.streams.items()):
        if proof.verdict != "under":
            continue
        yield Diagnostic(
            code="SA402", severity=Severity.WARNING,
            message=(
                f"stream {name!r} depth {proof.depth} is below the proved "
                f"minimal stall-free depth {proof.min_safe}; its producer "
                f"blocked {proof.full_stalls} time(s) and the graph lost "
                f"{occ.overhead_cycles} cycle(s) overall"
            ),
            location=Location("stream", name),
            hint=f"set depth >= {proof.min_safe} "
                 f"(repro analyze --fix-depths patches the spec)",
        )


@rule("SA403", name="overprovisioned-fifo", family="analysis",
      description="a FIFO far deeper than the proved worst-case "
                  "occupancy wastes on-chip RAM",
      requires=("graph",), severity=Severity.INFO)
def check_overprovisioned(context: LintContext) -> Iterable[Diagnostic]:
    report = _analysis(context)
    if report is None:
        return
    for name, proof in sorted(report.occupancy.streams.items()):
        if proof.verdict != "over":
            continue
        yield Diagnostic(
            code="SA403", severity=Severity.INFO,
            message=(
                f"stream {name!r} depth {proof.depth} exceeds the proved "
                f"worst-case occupancy {proof.min_safe} by more than "
                f"{OVERPROVISION_SLACK} slots"
            ),
            location=Location("stream", name),
            hint=f"depth {proof.min_safe} is provably stall-free; reclaim "
                 f"the BRAM unless the margin is deliberate",
        )
