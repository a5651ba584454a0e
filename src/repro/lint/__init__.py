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
:func:`run_lint`, :func:`lint_graph`, :func:`lint_kernel`
    The runner (:mod:`repro.lint.runner`).
:func:`load_spec`, :func:`context_from_spec`
    JSON design-spec ingestion (:mod:`repro.lint.spec`).

This ``__init__`` imports only the leaf modules eagerly; the rule modules
(which import the rest of :mod:`repro`) load lazily so that low-level
modules such as :mod:`repro.dataflow.graph` can emit diagnostics without
import cycles.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, LintReport, Location, Severity
from repro.lint.registry import (
    DEFAULT_REGISTRY,
    LintContext,
    Rule,
    RuleRegistry,
    rule,
)

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

_LAZY = {
    "run_lint": "repro.lint.runner",
    "lint_graph": "repro.lint.runner",
    "lint_kernel": "repro.lint.runner",
    "load_builtin_rules": "repro.lint.runner",
    "load_spec": "repro.lint.spec",
    "context_from_spec": "repro.lint.spec",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
