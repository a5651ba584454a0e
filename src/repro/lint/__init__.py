"""repro.lint: the synthesis-time linter.

A rule-based static-analysis pass over dataflow graphs, kernel
configurations, and device budgets — the reproduction's equivalent of the
checks the HLS tool chains run before a design ever executes.  See
``docs/linting.md`` for the rule catalogue.

Public API
----------
:class:`Diagnostic`, :class:`Severity`, :class:`Location`,
:class:`LintReport`
    The diagnostics data model (:mod:`repro.lint.diagnostics`).
:class:`Rule`, :class:`RuleRegistry`, :class:`LintContext`,
:data:`DEFAULT_REGISTRY`, :func:`rule`
    The rule machinery (:mod:`repro.lint.registry`).
:func:`run_lint`, :func:`lint_graph`, :func:`lint_kernel`,
:func:`load_builtin_rules`
    The runner (:mod:`repro.lint.runner`).
:func:`load_spec`, :func:`context_from_spec`
    JSON design-spec ingestion (:mod:`repro.lint.spec`).

Like every ``repro`` package, this one loads each name on first access
(:class:`repro.LazyExports`).  Low-level modules such as
:mod:`repro.dataflow.graph` import :mod:`repro.lint.diagnostics` to emit
diagnostics; that runs this ``__init__`` without loading the runner or
the rule modules, which import the rest of :mod:`repro`, so there is no
import cycle.
"""

from __future__ import annotations

from typing import Any

from repro import LazyExports

__all__ = [
    "Diagnostic",
    "Severity",
    "Location",
    "LintReport",
    "Rule",
    "RuleRegistry",
    "LintContext",
    "DEFAULT_REGISTRY",
    "rule",
    "run_lint",
    "lint_graph",
    "lint_kernel",
    "load_builtin_rules",
    "load_spec",
    "context_from_spec",
]

_EXPORTS = LazyExports(__name__, {
    "repro.lint.diagnostics": ("Diagnostic", "LintReport", "Location",
                               "Severity"),
    "repro.lint.registry": ("DEFAULT_REGISTRY", "LintContext", "Rule",
                            "RuleRegistry", "rule"),
    "repro.lint.runner": ("run_lint", "lint_graph", "lint_kernel",
                          "load_builtin_rules"),
    "repro.lint.spec": ("load_spec", "context_from_spec"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
