"""Seeded Poisson load generation and the serve-run report.

:class:`PoissonLoad` describes an arrival process — rate, job count,
tenant mix, exact-tier fraction, deadline policy — and expands
deterministically (`numpy` PCG64 stream) into concrete
``(arrival_time, JobSpec)`` pairs, so a chaos leg and its golden leg
replay byte-for-byte the same offered load.

:class:`ServeReport` folds one run's outcomes into the quantities the
benchmark gates on: sustained jobs per modelled second, p50/p99
latency, per-tenant rollups, degradation/reshard/cache counters,
admission decisions and every breaker transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.serve.job import JobSpec
from repro.serve.scheduler import FleetScheduler, JobOutcome

__all__ = ["PoissonLoad", "build_arrivals", "percentile", "ServeReport",
           "run_load"]


@dataclass(frozen=True)
class PoissonLoad:
    """One deterministic offered-load description."""

    jobs: int = 24
    #: mean arrivals per modelled second.
    rate_hz: float = 300.0
    seed: int = 0
    nx: int = 8
    ny: int = 9
    nz: int = 8
    tenants: tuple[str, ...] = ("acme", "birch")
    #: fraction of jobs requesting the exact (audit) tier.
    exact_fraction: float = 0.25
    #: of those, fraction whose tenant forbids degradation.
    no_degrade_fraction: float = 0.25
    #: modelled-seconds deadline stamped on every job (None = none).
    deadline_seconds: float | None = None
    #: distinct wind seeds cycled across jobs (< jobs => cache hits).
    distinct_inputs: int = 8
    #: registered workload-suite scenario every job serves (None =
    #: plain advection); admission quotes scale by its flops_scale.
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ConfigurationError(
                f"rate_hz must be positive and finite, got {self.rate_hz}"
            )
        Grid(self.nx, self.ny, self.nz)  # its GridError names the axis
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.deadline_seconds is not None and not (
                math.isfinite(self.deadline_seconds)
                and self.deadline_seconds > 0):
            raise ConfigurationError(
                "deadline_seconds must be positive and finite, "
                f"got {self.deadline_seconds}"
            )
        if not self.tenants:
            raise ConfigurationError("need at least one tenant")
        if not 0.0 <= self.exact_fraction <= 1.0:
            raise ConfigurationError(
                f"exact_fraction must be in [0, 1], got {self.exact_fraction}"
            )
        if not 0.0 <= self.no_degrade_fraction <= 1.0:
            raise ConfigurationError(
                "no_degrade_fraction must be in [0, 1], "
                f"got {self.no_degrade_fraction}"
            )
        if self.distinct_inputs < 1:
            raise ConfigurationError(
                f"distinct_inputs must be >= 1, got {self.distinct_inputs}"
            )

    def to_dict(self) -> dict[str, Any]:
        data = {
            "jobs": self.jobs,
            "rate_hz": self.rate_hz,
            "seed": self.seed,
            "grid": [self.nx, self.ny, self.nz],
            "tenants": list(self.tenants),
            "exact_fraction": self.exact_fraction,
            "no_degrade_fraction": self.no_degrade_fraction,
            "deadline_seconds": self.deadline_seconds,
            "distinct_inputs": self.distinct_inputs,
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario
        return data


def build_arrivals(load: PoissonLoad) -> list[tuple[float, JobSpec]]:
    """Expand a load description into concrete (time, spec) pairs."""
    rng = np.random.default_rng(load.seed)
    arrivals: list[tuple[float, JobSpec]] = []
    now = 0.0
    for index in range(load.jobs):
        now += float(rng.exponential(1.0 / load.rate_hz))
        exact = bool(rng.random() < load.exact_fraction)
        no_degrade = exact and bool(rng.random() < load.no_degrade_fraction)
        spec = JobSpec(
            job_id=f"job-{index:04d}",
            tenant=load.tenants[index % len(load.tenants)],
            nx=load.nx, ny=load.ny, nz=load.nz,
            seed=load.seed * 1000 + index % load.distinct_inputs,
            mode="exact" if exact else "functional",
            allow_degrade=not no_degrade,
            deadline_seconds=load.deadline_seconds,
            scenario=load.scenario,
        )
        arrivals.append((now, spec))
    return arrivals


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(
            f"percentile fraction must be in [0, 1], got {fraction}"
        )
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(np.ceil(fraction
                                                    * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class ServeReport:
    """Aggregate view of one serve run."""

    outcomes: list[JobOutcome]
    makespan_seconds: float
    fleet: dict[str, Any]
    admission: dict[str, Any]
    cache: dict[str, Any]
    load: dict[str, Any] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------

    @property
    def completed(self) -> list[JobOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failed(self) -> list[JobOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def latencies(self) -> list[float]:
        return [outcome.result.latency_seconds
                for outcome in self.completed
                if outcome.result is not None]

    @property
    def jobs_per_second(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return len(self.completed) / self.makespan_seconds

    def error_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.failed:
            name = type(outcome.error).__name__
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def tenant_rollup(self) -> dict[str, dict[str, Any]]:
        rollup: dict[str, dict[str, Any]] = {}
        for outcome in self.outcomes:
            tenant = outcome.spec.tenant
            row = rollup.setdefault(tenant, {
                "submitted": 0, "completed": 0, "failed": 0,
                "degraded": 0, "cache_hits": 0, "latencies": [],
            })
            row["submitted"] += 1
            if outcome.ok and outcome.result is not None:
                row["completed"] += 1
                row["latencies"].append(outcome.result.latency_seconds)
                row["degraded"] += int(outcome.result.degraded)
                row["cache_hits"] += int(outcome.result.cache_hit)
            else:
                row["failed"] += 1
        for row in rollup.values():
            latencies = row.pop("latencies")
            row["p99_latency_seconds"] = percentile(latencies, 0.99)
        return rollup

    def counters(self) -> dict[str, int]:
        degraded = reshards = redrives = cache_hits = exact_served = 0
        for outcome in self.completed:
            result = outcome.result
            assert result is not None
            degraded += int(result.degraded)
            reshards += result.reshards
            redrives += result.transfer_redrives
            cache_hits += int(result.cache_hit)
            exact_served += int(result.mode_served == "exact")
        return {
            "degraded": degraded, "reshards": reshards,
            "redrives": redrives, "cache_hits": cache_hits,
            "exact_served": exact_served,
        }

    def breaker_transitions(self) -> list[dict[str, Any]]:
        transitions = [
            transition
            for lane in self.fleet.get("lanes", [])
            for transition in lane.get("breaker", {}).get("transitions", [])
        ]
        return sorted(transitions, key=lambda t: (t["at"], t["lane"]))

    def to_dict(self) -> dict[str, Any]:
        return {
            "submitted": len(self.outcomes),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "errors": self.error_counts(),
            "makespan_seconds": self.makespan_seconds,
            "jobs_per_second": self.jobs_per_second,
            "p50_latency_seconds": percentile(self.latencies, 0.50),
            "p99_latency_seconds": percentile(self.latencies, 0.99),
            "counters": self.counters(),
            "tenants": self.tenant_rollup(),
            "admission": self.admission,
            "cache": self.cache,
            "fleet": self.fleet,
            "load": self.load,
            "results": [outcome.result.to_dict()
                        for outcome in self.completed
                        if outcome.result is not None],
        }

    def render_text(self) -> str:
        counters = self.counters()
        lines = [
            "serve report",
            "============",
            f"jobs: {len(self.outcomes)} submitted, "
            f"{len(self.completed)} completed, {len(self.failed)} failed",
            f"makespan: {self.makespan_seconds * 1e3:.3f} ms modelled "
            f"({self.jobs_per_second:.1f} jobs/s)",
            f"latency: p50 {percentile(self.latencies, 0.5) * 1e6:.1f} us, "
            f"p99 {percentile(self.latencies, 0.99) * 1e6:.1f} us",
            f"paths: {counters['cache_hits']} cache hits, "
            f"{counters['degraded']} degraded, "
            f"{counters['reshards']} reshards, "
            f"{counters['redrives']} redrives, "
            f"{counters['exact_served']} exact-tier",
        ]
        errors = self.error_counts()
        if errors:
            lines.append("errors: " + ", ".join(
                f"{name} x{count}" for name, count in errors.items()
            ))
        lines.append("tenants:")
        for tenant, row in sorted(self.tenant_rollup().items()):
            lines.append(
                f"  {tenant}: {row['completed']}/{row['submitted']} ok, "
                f"{row['failed']} failed, {row['degraded']} degraded, "
                f"p99 {row['p99_latency_seconds'] * 1e6:.1f} us"
            )
        transitions = self.breaker_transitions()
        if transitions:
            lines.append("breaker transitions:")
            for transition in transitions:
                lines.append(
                    f"  t={transition['at'] * 1e3:9.3f} ms "
                    f"{transition['lane']}: {transition['from']} -> "
                    f"{transition['to']} ({transition['reason']})"
                )
        return "\n".join(lines)


def run_load(scheduler: FleetScheduler, load: PoissonLoad) -> ServeReport:
    """Drive one load description through a scheduler, synchronously."""
    outcomes = scheduler.serve_sync(build_arrivals(load))
    return ServeReport(
        outcomes=outcomes,
        makespan_seconds=scheduler.clock.now,
        fleet=scheduler.fleet.to_dict(),
        admission=scheduler.admission.to_dict(),
        cache=scheduler.cache.to_dict(),
        load=load.to_dict(),
    )
