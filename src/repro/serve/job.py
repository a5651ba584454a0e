"""Job requests, results and the content fingerprints that key the cache.

A :class:`JobSpec` is a tenant's request: grid dimensions plus the wind
seed (inputs are generated deterministically with
:func:`~repro.core.wind.random_wind`, so two jobs with the same spec
carry bit-identical fields), the service mode, and the tenant's
robustness policy — may the fleet downgrade ``exact`` to ``functional`` under
overload, and by when must the job finish.

A :class:`JobResult` is the receipt: where and how the job actually ran
(device lane, mode served, degraded/cache-hit flags, reshard and
transfer-redrive counts) plus the blake2b checksum of the numeric
sources — the quantity the chaos gate compares against the fault-free
golden run to enforce bit-identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.serve.errors import AdmissionError
from repro.tune.admission import SERVE_MODES

__all__ = ["JobSpec", "JobResult", "fingerprint_fields", "checksum_sources"]


def fingerprint_fields(fields: FieldSet) -> str:
    """Content fingerprint of one input field set (cache key half).

    Hashes the raw bytes of u, v, w plus the grid dimensions, so two
    numerically identical inputs collide (good: second one is a cache
    hit) and any single-bit difference separates them.
    """
    digest = hashlib.blake2b(digest_size=16)
    grid = fields.grid
    digest.update(f"{grid.nx}x{grid.ny}x{grid.nz}".encode())
    for component in (fields.u, fields.v, fields.w):
        digest.update(component.tobytes())
    return digest.hexdigest()


def checksum_sources(sources: SourceSet) -> str:
    """Bit-exact checksum of one job's numeric result."""
    digest = hashlib.blake2b(digest_size=16)
    for component in (sources.su, sources.sv, sources.sw):
        digest.update(component.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One tenant request to the advection service."""

    job_id: str
    tenant: str = "tenant0"
    nx: int = 8
    ny: int = 9
    nz: int = 8
    #: wind-field seed; the input is ``random_wind(grid, seed, magnitude)``.
    seed: int = 0
    magnitude: float = 2.0
    #: requested service tier: "exact" delivers cycle-accurate RunStats
    #: alongside the sources, "functional" the sources only (same numbers).
    mode: str = "exact"
    #: may the fleet downgrade exact->functional under overload?
    allow_degrade: bool = True
    #: modelled-seconds deadline measured from submission (None = none).
    deadline_seconds: float | None = None
    #: registered workload-suite scenario to serve instead of plain
    #: advection (None = the default advection kernel).  The scenario
    #: supplies the input generator, the numeric kernel, and — via its
    #: operation-intensity ``flops_scale`` — the admission price.
    scenario: str | None = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise AdmissionError("job_id must be non-empty")
        if self.mode not in SERVE_MODES:
            raise AdmissionError(
                f"job {self.job_id}: unknown mode {self.mode!r}; "
                f"known: {list(SERVE_MODES)}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise AdmissionError(
                f"job {self.job_id}: deadline must be positive, "
                f"got {self.deadline_seconds}"
            )
        if self.scenario is not None:
            from repro.errors import ConfigurationError
            from repro.scenarios import get as get_scenario

            try:
                get_scenario(self.scenario)
            except ConfigurationError as error:
                raise AdmissionError(
                    f"job {self.job_id}: {error}") from error

    def grid(self) -> Grid:
        return Grid(self.nx, self.ny, self.nz)

    def fields(self) -> FieldSet:
        """Deterministically regenerate this job's input field set.

        Scenario jobs use the scenario's own wind generator and boundary
        variant (first batch); plain jobs draw the default random wind.
        """
        if self.scenario is not None:
            from repro.scenarios import get as get_scenario

            return get_scenario(self.scenario).make_fields(
                self.grid(), seed=self.seed)
        return random_wind(self.grid(), seed=self.seed,
                           magnitude=self.magnitude)

    def input_key(self) -> tuple[Any, ...]:
        """Exactly the attributes :meth:`fields` reads.

        Specs with equal keys regenerate bit-identical fields, so a
        scheduler builds and hashes each key's input once.  Scenario
        jobs ignore ``magnitude``; their key leads with the scenario
        name, so it never equals a plain job's (which leads with None).
        """
        if self.scenario is not None:
            return (self.scenario, self.nx, self.ny, self.nz, self.seed)
        return (None, self.nx, self.ny, self.nz, self.seed, self.magnitude)

    def flops_scale(self) -> float:
        """Operation intensity relative to the advection kernel (1.0
        for plain jobs) — the admission controller and the device lanes
        both scale kernel-busy time by this, so quote == bill."""
        if self.scenario is None:
            return 1.0
        from repro.scenarios import get as get_scenario

        return get_scenario(self.scenario).flops_scale

    def dims(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)


@dataclass
class JobResult:
    """Receipt for one completed job."""

    job_id: str
    tenant: str
    #: lane that produced the result ("u280-0"; "cache" on a cache hit).
    device: str
    #: tier actually served (may be "functional" for a degraded exact request).
    mode_served: str
    degraded: bool
    cache_hit: bool
    submitted_at: float
    finished_at: float
    #: blake2b over the numeric sources — the bit-identity witness.
    checksum: str
    #: cycle-accurate total (exact tier only; None for functional).
    stats_cycles: int | None = None
    reshards: int = 0
    transfer_redrives: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def latency_seconds(self) -> float:
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "device": self.device,
            "mode_served": self.mode_served,
            "degraded": self.degraded,
            "cache_hit": self.cache_hit,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "latency_seconds": self.latency_seconds,
            "checksum": self.checksum,
            "stats_cycles": self.stats_cycles,
            "reshards": self.reshards,
            "transfer_redrives": self.transfer_redrives,
            **({"extra": self.extra} if self.extra else {}),
        }
