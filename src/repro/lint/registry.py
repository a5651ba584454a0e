"""Rule registry and lint context.

A :class:`Rule` packages one static check: a stable code, the rule family
it belongs to, what inputs it needs (``graph``, ``config``, ``device``...),
and a check callable producing :class:`~repro.lint.diagnostics.Diagnostic`
objects.  Rules register themselves into a :class:`RuleRegistry` via the
:func:`rule` decorator; the runner walks the registry, skipping rules whose
requirements the :class:`LintContext` cannot satisfy and rules the caller
disabled.

Code families
-------------
``DF``  dataflow-graph structure (connectivity, topology, FIFO sizing)
``KC``  kernel configuration and Y chunking (halo coverage, II hazards)
``RS``  device resource budgets (fabric fit, on-chip RAM, memory capacity)
``AC``  FLOP accounting (the paper's 63/55-op model)
``SA``  proved static-analysis facts (deadlock, minimal depths, periods)
``BK``  backend deployments (e.g. Versal AI-engine array constraints)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import ChunkingError, LintError
from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # imports deferred to avoid cycles at package import
    from repro.analyze.report import AnalysisReport
    from repro.dataflow.graph import DataflowGraph
    from repro.hardware.device import FPGADevice
    from repro.kernel.config import KernelConfig
    from repro.shiftbuffer.chunking import ChunkPlan

__all__ = ["LintContext", "Rule", "RuleRegistry", "rule", "DEFAULT_REGISTRY"]


@dataclass
class LintContext:
    """Everything a lint run may inspect.

    Any field may be ``None``; rules declare their requirements and are
    skipped when the context lacks them.  ``chunk_plan`` defaults to the
    config's own plan; passing one explicitly lets callers lint hand-built
    (possibly broken) plans.  ``analysis`` is likewise a precomputed
    input: the static verifier's report on ``graph``, which the ``SA``
    rules derive with :func:`~repro.analyze.report.analyze_graph` when
    it is ``None``.
    """

    graph: "DataflowGraph | None" = None
    config: "KernelConfig | None" = None
    device: "FPGADevice | None" = None
    num_kernels: int | None = None
    chunk_plan: "ChunkPlan | None" = None
    #: External-memory initiation interval imposed on the read stage.
    read_ii: int = 1
    #: A backend-specific deployment under lint (e.g. a
    #: :class:`repro.backend.versal_aie.VersalDeployment`); only the
    #: ``BK`` rule family requires it, so every existing flow skips
    #: those rules untouched.
    backend_deployment: Any = None
    #: A proof of ``graph`` computed ahead of the lint run (a caller
    #: that lints many configs of one graph proves it once); it must be
    #: ``analyze_graph(graph)``'s result, so the diagnostics match.
    analysis: "AnalysisReport | None" = None
    #: Free-form extras for experiment-specific rules.
    extras: dict[str, Any] = field(default_factory=dict)

    def resolved_chunk_plan(self) -> "ChunkPlan | None":
        if self.chunk_plan is not None:
            return self.chunk_plan
        if self.config is not None:
            try:
                return self.config.chunk_plan()
            except ChunkingError:
                # Geometry the planner rejects outright: the chunk-plan
                # rules are skipped and KC100 reports the rejection.
                return None
        return None

    def has(self, requirement: str) -> bool:
        """True when ``requirement`` is available on this context."""
        if requirement == "chunk_plan":
            return self.resolved_chunk_plan() is not None
        return getattr(self, requirement, None) is not None


CheckFn = Callable[[LintContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """One registered static check."""

    code: str
    name: str
    family: str
    description: str
    requires: tuple[str, ...]
    default_severity: Severity
    check: CheckFn

    def applies(self, context: LintContext) -> bool:
        return all(context.has(req) for req in self.requires)

    def run(self, context: LintContext) -> list[Diagnostic]:
        return list(self.check(context))


class RuleRegistry:
    """A keyed collection of rules with per-rule enable/disable."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, new_rule: Rule) -> Rule:
        if new_rule.code in self._rules:
            raise ValueError(f"duplicate lint rule code {new_rule.code!r}")
        self._rules[new_rule.code] = new_rule
        return new_rule

    def get(self, code: str) -> Rule:
        try:
            return self._rules[code]
        except KeyError:
            raise KeyError(
                f"unknown lint rule {code!r}; known: {sorted(self._rules)}"
            ) from None

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, code: str) -> bool:
        return code in self._rules

    def __iter__(self) -> Iterator[Rule]:
        """Rules in stable (code) order."""
        return iter(sorted(self._rules.values(), key=lambda r: r.code))

    def families(self) -> tuple[str, ...]:
        return tuple(sorted({r.family for r in self._rules.values()}))

    def selected(self, *, select: Iterable[str] | None = None,
                 ignore: Iterable[str] | None = None) -> list[Rule]:
        """Rules enabled under ``select``/``ignore`` filters.

        Filters match exact codes, code prefixes (``DF``), or family
        names; ``ignore`` wins over ``select``.  A pattern that is empty
        or matches no registered rule raises :class:`LintError`, since
        a mistyped filter would otherwise silently select nothing or
        ignore everything.
        """
        def matches(r: Rule, patterns: Iterable[str]) -> bool:
            return any(
                r.code == p or r.code.startswith(p) or r.family == p
                for p in patterns
            )

        rules = list(self)
        chosen = None if select is None else list(select)
        dropped = None if ignore is None else list(ignore)
        unmatched = [p for p in (chosen or []) + (dropped or [])
                     if not p or not any(matches(r, [p]) for r in rules)]
        if unmatched:
            raise LintError(
                "unmatched lint filter pattern(s) "
                + ", ".join(repr(p) for p in unmatched)
                + ": a pattern must name a rule code, a code prefix or a "
                  "family (see repro lint --list-rules)")
        if chosen is not None:
            rules = [r for r in rules if matches(r, chosen)]
        if dropped is not None:
            rules = [r for r in rules if not matches(r, dropped)]
        return rules


#: The registry built-in rule modules register into.
DEFAULT_REGISTRY = RuleRegistry()


def rule(code: str, *, name: str, family: str, description: str,
         requires: tuple[str, ...] = (),
         severity: Severity = Severity.ERROR,
         registry: RuleRegistry | None = None) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a check function as a lint rule."""

    def decorate(fn: CheckFn) -> CheckFn:
        (DEFAULT_REGISTRY if registry is None else registry).register(Rule(
            code=code, name=name, family=family, description=description,
            requires=requires, default_severity=severity, check=fn,
        ))
        return fn

    return decorate
