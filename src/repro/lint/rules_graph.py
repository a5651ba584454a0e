"""Graph-family lint rules (``DF``): dataflow-region structure.

These are the properties the HLS tools verify when they elaborate a
dataflow region: every port wired, acyclic topology, and no isolated or
lock-stepped stage.  ``DF001``–``DF003`` delegate to
:meth:`repro.dataflow.graph.DataflowGraph.structural_diagnostics`, which
owns the structural pass (so :meth:`~repro.dataflow.graph.DataflowGraph.validate`
and the linter can never disagree); ``DF005``–``DF006`` are lint-only
checks.  FIFO sizing is not guessed from structure here: the ``SA``
rules (:mod:`repro.lint.rules_analyze`) prove it on the stages' declared
emission schedules.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.registry import LintContext, rule

__all__ = []  # rules register themselves; nothing to re-export


def _structural(context: LintContext, code: str) -> Iterable[Diagnostic]:
    assert context.graph is not None
    return (d for d in context.graph.structural_diagnostics()
            if d.code == code)


@rule("DF001", name="unconnected-port", family="graph",
      description="every declared stage port must be connected to exactly "
                  "one stream",
      requires=("graph",))
def check_unconnected_ports(context: LintContext) -> Iterable[Diagnostic]:
    return _structural(context, "DF001")


@rule("DF002", name="empty-graph", family="graph",
      description="a dataflow region must contain at least one stage",
      requires=("graph",))
def check_empty_graph(context: LintContext) -> Iterable[Diagnostic]:
    return _structural(context, "DF002")


@rule("DF003", name="cyclic-topology", family="graph",
      description="the stage topology must be a DAG (no feedback streams)",
      requires=("graph",))
def check_cycles(context: LintContext) -> Iterable[Diagnostic]:
    return _structural(context, "DF003")


@rule("DF005", name="isolated-stage", family="graph",
      description="a stage with no streams attached can never exchange "
                  "data with the rest of the region",
      requires=("graph",), severity=Severity.WARNING)
def check_isolated_stages(context: LintContext) -> Iterable[Diagnostic]:
    assert context.graph is not None
    graph = context.graph
    if len(graph.stages) < 2:
        return
    for stage in graph.stages:
        declares_ports = stage.input_ports or stage.output_ports
        if declares_ports and not stage.inputs and not stage.outputs:
            yield Diagnostic(
                code="DF005", severity=Severity.WARNING,
                message=(
                    f"stage {stage.name!r} is isolated: declared ports but "
                    f"no stream reaches or leaves it"
                ),
                location=Location("stage", stage.name),
                hint="connect the stage or drop it from the graph",
            )


@rule("DF006", name="single-register-fifo", family="graph",
      description="a depth-1 FIFO cannot hold a produced value while the "
                  "consumer is busy; producer and consumer run in "
                  "lock-step, halving throughput on any hiccup",
      requires=("graph",), severity=Severity.INFO)
def check_shallow_streams(context: LintContext) -> Iterable[Diagnostic]:
    assert context.graph is not None
    for stream in context.graph.streams:
        if stream.depth < 2:
            yield Diagnostic(
                code="DF006", severity=Severity.INFO,
                message=(
                    f"stream {stream.name!r} has depth {stream.depth}; "
                    f"below the tool default of 2 (producer + consumer "
                    f"register)"
                ),
                location=Location("stream", stream.name),
                hint="use depth >= 2 unless the lock-step coupling is "
                     "intentional",
            )
