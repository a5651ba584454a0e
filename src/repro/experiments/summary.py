"""Machine-readable reproduction summary and scorecard.

Collects every experiment's rows and paper comparisons into one JSON
document, and condenses them into a scorecard (how many published numbers
are matched within tolerance, how many shape claims hold) — the artefact
a reproduction reviewer wants first.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.registry import all_experiment_ids, run_experiment

__all__ = ["Scorecard", "build_summary", "build_scorecard", "write_summary"]

#: Numeric comparisons are "matched" inside this tolerance (percent).
DEFAULT_TOLERANCE_PCT: float = 15.0


@dataclass(frozen=True)
class Scorecard:
    """Condensed reproduction status.

    Quantitative comparisons (published numbers) are scored by deviation;
    ordering claims (the paper asserted a direction) by whether they hold.
    """

    experiments: int
    quantitative: int
    within_tolerance: int
    orderings: int
    orderings_holding: int
    tolerance_pct: float
    worst_label: str
    worst_error_pct: float

    @property
    def match_fraction(self) -> float:
        total = self.quantitative + self.orderings
        matched = self.within_tolerance + self.orderings_holding
        return matched / total if total else 1.0

    def summary_line(self) -> str:
        return (
            f"{self.within_tolerance}/{self.quantitative} published "
            f"quantities within {self.tolerance_pct:.0f}% and "
            f"{self.orderings_holding}/{self.orderings} ordering claims "
            f"holding, across {self.experiments} artefacts "
            f"(worst quantitative: {self.worst_label} at "
            f"{self.worst_error_pct:+.1f}%)"
        )


def build_summary() -> dict:
    """Run every experiment; return a JSON-serialisable summary."""
    summary: dict = {"experiments": {}}
    for experiment_id in all_experiment_ids():
        result = run_experiment(experiment_id)
        summary["experiments"][experiment_id] = {
            "title": result.title,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "comparisons": [
                {
                    "label": c.label,
                    "measured": c.measured,
                    "paper": c.paper,
                    "percent_error": c.percent_error,
                    "kind": c.kind,
                    "holds": c.holds,
                }
                for c in result.comparisons
            ],
        }
    return summary


def build_scorecard(summary: dict | None = None, *,
                    tolerance_pct: float = DEFAULT_TOLERANCE_PCT) -> Scorecard:
    """Condense a summary into a scorecard."""
    if not (math.isfinite(tolerance_pct) and tolerance_pct >= 0):
        raise ConfigurationError(
            f"tolerance must be a finite number >= 0 percent, got "
            f"{tolerance_pct}")
    summary = summary or build_summary()
    comparisons = [
        comparison
        for experiment in summary["experiments"].values()
        for comparison in experiment["comparisons"]
    ]
    quantitative = [c for c in comparisons if c["kind"] == "quantitative"]
    orderings = [c for c in comparisons if c["kind"] == "ordering"]
    within = sum(
        1 for c in quantitative if abs(c["percent_error"]) <= tolerance_pct
    )
    worst = max(quantitative, key=lambda c: abs(c["percent_error"]),
                default=None)
    return Scorecard(
        experiments=len(summary["experiments"]),
        quantitative=len(quantitative),
        within_tolerance=within,
        orderings=len(orderings),
        orderings_holding=sum(1 for c in orderings if c["holds"]),
        tolerance_pct=tolerance_pct,
        worst_label=worst["label"] if worst else "n/a",
        worst_error_pct=worst["percent_error"] if worst else 0.0,
    )


def write_summary(path: str | pathlib.Path) -> pathlib.Path:
    """Write the full summary JSON to ``path``."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(build_summary(), indent=2, default=str))
    return path
