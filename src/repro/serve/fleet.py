"""The simulated device fleet: named lanes over the hardware models.

A fleet is parsed from a spec string like ``"2xu280+1xstratix10+cpu"``:
each term is ``[<count>x]<device>`` and expands to numbered *lanes*
(``u280-0``, ``u280-1``, ``stratix10-0``, ``cpu-0``).  A lane owns one
device model, one :class:`~repro.serve.breaker.CircuitBreaker`, and its
availability state — ``lost_until`` is the modelled time a blipped
device comes back (``inf`` for a permanent loss).

Lanes bill jobs through the *same* pricer the admission controller
quotes with (:mod:`repro.tune.admission`):
:func:`~repro.tune.admission.serve_session` chunking plus the Fig. 6
overlapped schedule, run through the discrete-event simulator so
injected transfer faults occupy the PCIe engines for their retries.
Every command in a lane's queue is namespaced with the lane name
(``"u280-0:h2d[3]"``), so a fault plan's ``transfer`` specs can glob one
device without striking its siblings.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any

from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.hardware.devices import device_by_name
from repro.runtime.session import AdvectionSession
from repro.serve.breaker import CircuitBreaker
from repro.serve.job import JobSpec
from repro.tune.admission import _price_job, serve_session

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy

__all__ = ["DeviceLane", "Fleet", "parse_fleet_spec", "DEFAULT_FLEET_SPEC"]

#: Two U280s and a Stratix 10 — the paper's boards, doubled on the
#: Xilinx side so device loss leaves a same-model survivor.
DEFAULT_FLEET_SPEC: str = "2xu280+1xstratix10"

_TERM = re.compile(r"^(?:(\d+)x)?([A-Za-z0-9_\-]+)$")


def parse_fleet_spec(spec: str) -> list[str]:
    """Expand ``"2xu280+cpu"`` into device names, one per lane."""
    names: list[str] = []
    for term in spec.split("+"):
        term = term.strip()
        if not term:
            raise ConfigurationError(
                f"empty term in fleet spec {spec!r}"
            )
        match = _TERM.match(term)
        if match is None:
            raise ConfigurationError(
                f"bad fleet term {term!r} (want [<count>x]<device>)"
            )
        count = int(match.group(1) or 1)
        if count < 1:
            raise ConfigurationError(
                f"fleet term {term!r}: count must be >= 1"
            )
        names.extend([match.group(2)] * count)
    if not names:
        raise ConfigurationError(f"fleet spec {spec!r} has no devices")
    return names


class DeviceLane:
    """One schedulable device within the fleet."""

    def __init__(self, name: str, device: Any, *,
                 failure_threshold: int = 3,
                 cooldown_seconds: float = 0.005) -> None:
        self.name = name
        self.device = device
        self.breaker = CircuitBreaker(
            name, failure_threshold=failure_threshold,
            cooldown_seconds=cooldown_seconds,
        )
        #: modelled time the device is down until (None = healthy;
        #: float("inf") = permanently lost).
        self.lost_until: float | None = None
        self.jobs_served = 0
        self.reshards_received = 0
        self._sessions: dict[tuple[int, int, int], AdvectionSession] = {}

    # -- availability -------------------------------------------------------

    def lost(self, now: float) -> bool:
        """Is the device down at modelled time ``now``?

        A blip's downtime elapsing does not by itself revive the lane:
        re-admission goes through the breaker's half-open probe, so the
        recovery sequence is observable.
        """
        return self.lost_until is not None and now < self.lost_until

    def mark_lost(self, until: float) -> None:
        self.lost_until = until

    def revive(self) -> None:
        self.lost_until = None

    def probe_healthy(self, now: float) -> bool:
        """Half-open probe outcome: has the downtime elapsed?"""
        return not self.lost(now)

    # -- billing ------------------------------------------------------------

    def session_for(self, grid: Grid) -> AdvectionSession:
        key = (grid.nx, grid.ny, grid.nz)
        session = self._sessions.get(key)
        if session is None:
            session = serve_session(self.device, grid)
            self._sessions[key] = session
        return session

    def service_seconds(self, spec: JobSpec, mode: str, *,
                        fault_plan: "FaultPlan | None" = None,
                        retry: "RetryPolicy | None" = None,
                        watchdog_seconds: float | None = None,
                        ) -> tuple[float, int]:
        """Bill one job: (modelled seconds, transfer redrives performed).

        Prices the job exactly as :func:`~repro.tune.admission.quote_job`
        does, with this lane's command names, fault plan, retry policy
        and watchdog, on the lane's cached per-grid session.  Typed fault
        errors (:class:`~repro.errors.RetryExhaustedError`,
        :class:`~repro.errors.WatchdogTimeout`) propagate to the
        scheduler, which turns them into breaker evidence and reshards
        or fails the job.
        """
        grid = spec.grid()
        bill, redrives = _price_job(
            self.session_for(grid), grid, mode, spec.flops_scale(),
            name_prefix=f"{self.name}:", fault_plan=fault_plan,
            retry=retry, watchdog_seconds=watchdog_seconds,
        )
        return bill.service_seconds, redrives

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "device": self.device.name,
            "lost_until": self.lost_until,
            "jobs_served": self.jobs_served,
            "reshards_received": self.reshards_received,
            "breaker": self.breaker.to_dict(),
        }


class Fleet:
    """All lanes plus fleet-level availability queries."""

    def __init__(self, lanes: list[DeviceLane]) -> None:
        if not lanes:
            raise ConfigurationError("a fleet needs at least one lane")
        names = [lane.name for lane in lanes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate lane names: {names}")
        self.lanes = lanes

    @classmethod
    def from_spec(cls, spec: str = DEFAULT_FLEET_SPEC, *,
                  failure_threshold: int = 3,
                  cooldown_seconds: float = 0.005) -> "Fleet":
        counters: dict[str, int] = {}
        lanes = []
        for device_name in parse_fleet_spec(spec):
            device = device_by_name(device_name)
            ordinal = counters.get(device_name, 0)
            counters[device_name] = ordinal + 1
            lanes.append(DeviceLane(
                f"{device_name}-{ordinal}", device,
                failure_threshold=failure_threshold,
                cooldown_seconds=cooldown_seconds,
            ))
        return cls(lanes)

    def lane(self, name: str) -> DeviceLane:
        for lane in self.lanes:
            if lane.name == name:
                return lane
        raise ConfigurationError(f"no lane named {name!r}")

    def dispatchable(self, now: float) -> list[DeviceLane]:
        """Lanes whose breakers admit regular jobs right now."""
        return [lane for lane in self.lanes
                if lane.breaker.allows_dispatch() and not lane.lost(now)]

    def recoverable(self, now: float) -> bool:
        """Could *some* lane ever serve again (breaker probe or blip end)?"""
        return any(lane.lost_until is None or lane.lost_until < float("inf")
                   for lane in self.lanes)

    def device_types(self) -> list[Any]:
        """One device model per distinct type (for admission quotes)."""
        seen: dict[str, Any] = {}
        for lane in self.lanes:
            seen.setdefault(lane.device.name, lane.device)
        return list(seen.values())

    def to_dict(self) -> dict[str, Any]:
        return {"lanes": [lane.to_dict() for lane in self.lanes]}
