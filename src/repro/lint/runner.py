"""The lint runner: applies the rule catalogue to a context.

:func:`run_lint` is the primitive — walk a registry, skip rules whose
requirements the context cannot satisfy or that the caller disabled,
collect diagnostics into a :class:`~repro.lint.diagnostics.LintReport`.
:func:`lint_graph` and :func:`lint_kernel` are the convenience entry
points the engine pre-flight hook and the CLI use.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError
from repro.lint.diagnostics import LintReport
from repro.lint.registry import DEFAULT_REGISTRY, LintContext, RuleRegistry

if TYPE_CHECKING:
    from repro.analyze.report import AnalysisReport
    from repro.dataflow.graph import DataflowGraph
    from repro.hardware.device import FPGADevice
    from repro.kernel.config import KernelConfig

__all__ = ["run_lint", "lint_graph", "lint_kernel", "load_builtin_rules"]

_BUILTIN_RULE_MODULES = (
    "repro.lint.rules_graph",
    "repro.lint.rules_kernel",
    "repro.lint.rules_resource",
    "repro.lint.rules_accounting",
    "repro.lint.rules_analyze",
    "repro.lint.rules_backend",
)


def load_builtin_rules() -> RuleRegistry:
    """Import the built-in rule modules (idempotent) and return the registry."""
    for module in _BUILTIN_RULE_MODULES:
        importlib.import_module(module)
    return DEFAULT_REGISTRY


def run_lint(context: LintContext, *, registry: RuleRegistry | None = None,
             select: Iterable[str] | None = None,
             ignore: Iterable[str] | None = None,
             subject: str = "") -> LintReport:
    """Run every applicable, enabled rule over ``context``.

    Parameters
    ----------
    context:
        What to lint; rules whose requirements (graph, config, device...)
        are missing are skipped, not failed.
    registry:
        Rule catalogue (default: the built-in rules).
    select, ignore:
        Enable/disable filters matching rule codes, code prefixes
        (``"DF"``), or family names (``"resource"``); ``ignore`` wins.
    subject:
        Label for the report (defaults to the graph's name if present).
    """
    if registry is None:
        registry = load_builtin_rules()
    if not subject and context.graph is not None:
        subject = context.graph.name
    diagnostics = []
    for rule in registry.selected(select=select, ignore=ignore):
        if rule.applies(context):
            for diag in rule.run(context):
                diagnostics.append(dataclasses.replace(
                    diag,
                    rule=diag.rule or rule.name,
                    family=diag.family or rule.family,
                ))
    return LintReport.collect(subject or "lint", diagnostics)


def lint_graph(graph: "DataflowGraph", **kwargs) -> LintReport:
    """Lint a wired dataflow graph (graph + accounting families)."""
    return run_lint(LintContext(graph=graph), **kwargs)


def lint_kernel(config: "KernelConfig",
                device: "FPGADevice | None" = None,
                num_kernels: int | None = None, *,
                graph: "DataflowGraph | None" = None,
                read_ii: int = 1,
                analysis: "AnalysisReport | None" = None,
                **kwargs) -> LintReport:
    """Lint a kernel design, deriving its Fig. 2 graph if none is given.

    ``analysis`` is a precomputed proof of that graph
    (:attr:`LintContext.analysis`); the ``SA`` rules derive one when it
    is ``None``.
    """
    if num_kernels is not None and num_kernels < 1:
        raise ConfigurationError(
            f"num_kernels must be >= 1, got {num_kernels}"
        )
    if graph is None:
        from repro.kernel.builder import build_structural_graph

        graph = build_structural_graph(config, read_ii=read_ii)
    return run_lint(
        LintContext(graph=graph, config=config, device=device,
                    num_kernels=num_kernels, read_ii=read_ii,
                    analysis=analysis),
        **kwargs,
    )
