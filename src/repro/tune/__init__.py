"""repro.tune: design-space exploration and autotuning.

The subsystem that automates what the paper's authors did by hand:
pick a chunk width, replica count, FIFO depth, number format, memory
space and host schedule for a device, trading sustained GFLOPS against
fabric utilisation and watts.  See :mod:`repro.tune.space` for the
parameter space, :mod:`repro.tune.cost` for the lint-gated analytic
cost model, :mod:`repro.tune.strategies` for the seeded searches,
:mod:`repro.tune.pareto` for frontier extraction,
:mod:`repro.tune.measure` for the simulation-backed refinement tier,
:mod:`repro.tune.tuner` for the orchestration entry point, and
:mod:`repro.tune.admission` for the per-job quotes the serving layer's
admission controller prices deadlines with.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "AnnealingSearch",
    "CostModel",
    "EXACT_TELEMETRY_OUT_SCALE",
    "Evaluation",
    "EvaluationCache",
    "ExhaustiveSearch",
    "GreedySearch",
    "JobQuote",
    "SERVE_MODES",
    "MeasuredResult",
    "OBJECTIVES",
    "PRECISION_FORMATS",
    "ParameterSpace",
    "STRATEGIES",
    "SearchStrategy",
    "TunePoint",
    "TuneReport",
    "dominates",
    "efficiency_ratio",
    "improvement_ratio",
    "make_strategy",
    "measure_candidates",
    "out_scale_for_mode",
    "pareto_front",
    "quote_job",
    "render_text",
    "serve_config",
    "serve_session",
    "tune",
]

_EXPORTS = LazyExports(__name__, {
    "repro.tune.admission": ("EXACT_TELEMETRY_OUT_SCALE", "JobQuote",
                             "SERVE_MODES", "out_scale_for_mode", "quote_job",
                             "serve_config", "serve_session"),
    "repro.tune.cache": ("EvaluationCache",),
    "repro.tune.cost": ("OBJECTIVES", "CostModel", "Evaluation"),
    "repro.tune.measure": ("MeasuredResult", "measure_candidates"),
    "repro.tune.pareto": ("dominates", "efficiency_ratio", "improvement_ratio",
                          "pareto_front"),
    "repro.tune.space": ("PRECISION_FORMATS", "ParameterSpace", "TunePoint"),
    "repro.tune.strategies": ("STRATEGIES", "AnnealingSearch",
                              "ExhaustiveSearch", "GreedySearch",
                              "SearchStrategy", "make_strategy"),
    "repro.tune.tuner": ("TuneReport", "render_text", "tune"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
