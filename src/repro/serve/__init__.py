"""repro.serve: fault-tolerant advection-as-a-service fleet scheduling.

The serving layer turns the repository's device models into a
*simulated fleet* behind an asyncio scheduler: concurrent jobs are
priced for admission by :mod:`repro.tune.admission` (the device
invocation plus the Fig. 6 discrete-event host schedule, the pricer
that also bills each lane), sharded across named device lanes, and
answered bit-identically even while the fault plane
(:mod:`repro.faults`) kills devices under them.  See
:mod:`repro.serve.scheduler` for the job lifecycle,
:mod:`repro.serve.breaker` for per-device circuit breaking,
:mod:`repro.serve.admission` for the degrade-or-shed ladder,
:mod:`repro.serve.clock` for deterministic virtual time, and
``docs/serving.md`` for the architecture tour.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionError",
    "BreakerState",
    "BreakerTransition",
    "CacheEntry",
    "CircuitBreaker",
    "DEFAULT_FLEET_SPEC",
    "DeadlineExceededError",
    "DeviceLane",
    "Fleet",
    "FleetDownError",
    "FleetScheduler",
    "JobOutcome",
    "JobResult",
    "JobSpec",
    "OverloadError",
    "PoissonLoad",
    "ReshardExhaustedError",
    "ResultCache",
    "SchedulerStallError",
    "ServeError",
    "ServeReport",
    "VirtualClock",
    "build_arrivals",
    "checksum_sources",
    "fingerprint_fields",
    "parse_fleet_spec",
    "percentile",
    "run_load",
    "run_virtual",
]

_EXPORTS = LazyExports(__name__, {
    "repro.serve.admission": ("AdmissionController", "AdmissionDecision"),
    "repro.serve.breaker": ("BreakerState", "BreakerTransition",
                            "CircuitBreaker"),
    "repro.serve.cache": ("CacheEntry", "ResultCache"),
    "repro.serve.clock": ("VirtualClock", "run_virtual"),
    "repro.serve.driver": ("PoissonLoad", "ServeReport", "build_arrivals",
                           "percentile", "run_load"),
    "repro.serve.errors": ("AdmissionError", "DeadlineExceededError",
                           "FleetDownError", "OverloadError",
                           "ReshardExhaustedError", "SchedulerStallError",
                           "ServeError"),
    "repro.serve.fleet": ("DEFAULT_FLEET_SPEC", "DeviceLane", "Fleet",
                          "parse_fleet_spec"),
    "repro.serve.job": ("JobResult", "JobSpec", "checksum_sources",
                        "fingerprint_fields"),
    "repro.serve.scheduler": ("FleetScheduler", "JobOutcome"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
