"""The workload suite: a typed scenario registry + conformance harness.

The paper evaluates one kernel (PW advection) on one grid family; the
reproduction generalises both axes.  A :class:`~repro.scenarios.base.
Scenario` binds a stencil kernel (advection, diffusion, buoyancy
smoothing — all built from the existing stage/shift-buffer parts) to a
grid family, boundary-condition variant and optional multi-field batch;
the registry (:mod:`repro.scenarios.registry`) names the built-in
suite; and the conformance harness (:mod:`repro.scenarios.conformance`)
holds every entry to the engine's bit-identity guarantee across
execution modes, including under injected faults.

See ``docs/scenarios.md``.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "OpModel",
    "GridFamily",
    "Scenario",
    "ScenarioKernel",
    "ScenarioResult",
    "AdvectionKernel",
    "DiffusionKernel",
    "BuoyancyKernel",
    "register",
    "get",
    "names",
    "scenarios",
    "unregistered_cli_kernels",
    "run_conformance",
    "run_suite",
    "ConformanceReport",
    "ScenarioConformance",
]

_EXPORTS = LazyExports(__name__, {
    "repro.scenarios.base": ("GridFamily", "OpModel", "Scenario",
                             "ScenarioKernel", "ScenarioResult"),
    "repro.scenarios.conformance": ("ConformanceReport", "ScenarioConformance",
                                    "run_conformance", "run_suite"),
    "repro.scenarios.kernels": ("AdvectionKernel", "BuoyancyKernel",
                                "DiffusionKernel"),
    "repro.scenarios.registry": ("get", "names", "register", "scenarios",
                                 "unregistered_cli_kernels"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
