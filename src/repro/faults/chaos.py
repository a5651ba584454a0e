"""Chaos harness: seeded fault scenarios checked against one invariant.

Every scenario injects faults from a deterministic
:class:`~repro.faults.plan.FaultPlan` into one of the runtime layers and
asserts the resilience invariant:

    every run either completes **bit-identical** to the fault-free golden
    output, or raises a **typed** :class:`~repro.errors.ReproError`
    within its watchdog budget — never a hang, never silent corruption.

Scenario families cover the injection sites end to end: PCIe transfer
fails/stalls/hangs through the schedule simulator, FIFO word corruption
and loss through the dataflow engine (with chunk-seam checkpoint
recovery), permanent stage freezes caught by the cycle watchdog, kernel
replica slow-downs and kills (quarantine + rescheduling onto survivors),
rank drops in the distributed driver (respawn under the retry
policy), and whole-device losses/blips under the serving fleet
(in-flight jobs reshard to surviving lanes and must complete
bit-identical to a fault-free fleet run of the same offered load).
Each scenario is executed twice with the same seed and must reproduce
the identical fault trace and outcome — the determinism half of the
contract.

Timing-only families (``transfer-*``) have no numerical product; for
them "completes" means the schedule finishes inside its watchdog budget.
Data integrity under transfer faults is a property of the data-plane
families, which do compare bitwise against the golden output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy

__all__ = ["CHAOS_FAMILIES", "ChaosOutcome", "ChaosReport", "run_chaos"]

#: Every scenario family the harness knows, in sweep order.
CHAOS_FAMILIES: tuple[str, ...] = (
    "transfer-fail",
    "transfer-stall",
    "transfer-hang",
    "fifo-corrupt",
    "fifo-drop",
    "fifo-persistent",
    "stage-freeze",
    "replica-kill",
    "replica-slow",
    "rank-drop",
    "device-loss",
    "device-blip",
)

#: Families quick enough for the CI smoke sweep (one engine run each).
SMOKE_FAMILIES: tuple[str, ...] = (
    "transfer-fail",
    "transfer-hang",
    "fifo-corrupt",
    "fifo-drop",
    "replica-kill",
    "rank-drop",
    "device-loss",
)

#: Generous per-engine-run cycle budget for the tiny chaos grids.
_WATCHDOG_CYCLES: int = 200_000


@dataclass
class ChaosOutcome:
    """Verdict of one seeded scenario (and its determinism replay)."""

    family: str
    seed: int
    #: ``identical`` | ``completed`` | ``error`` | a violation label.
    status: str
    #: exception class name when ``status == "error"``.
    error: str | None
    #: number of fault events actually injected.
    events: int
    ok: bool
    detail: str = ""
    #: why the batched exact engine fell back to per-cycle ticking for
    #: this scenario's run, if it did (see
    #: :attr:`repro.dataflow.engine.RunStats.batch_fallback_reason`).
    batch_fallback_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "events": self.events,
            "ok": self.ok,
            "detail": self.detail,
            "batch_fallback_reason": self.batch_fallback_reason,
        }


@dataclass
class ChaosReport:
    """All outcomes of one chaos sweep."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def violations(self) -> list[ChaosOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "scenarios": len(self.outcomes),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render_text(self) -> str:
        lines = []
        for outcome in self.outcomes:
            verdict = "ok  " if outcome.ok else "FAIL"
            what = outcome.status
            if outcome.error:
                what += f"[{outcome.error}]"
            line = (f"{verdict} {outcome.family:>16} seed={outcome.seed}  "
                    f"{what}  ({outcome.events} faults)")
            if outcome.batch_fallback_reason:
                line += f"  fallback={outcome.batch_fallback_reason}"
            if outcome.detail:
                line += f"  {outcome.detail}"
            lines.append(line)
        good = sum(outcome.ok for outcome in self.outcomes)
        lines.append(f"{good}/{len(self.outcomes)} scenarios uphold the "
                     f"invariant")
        return "\n".join(lines)


# -- per-family execution -----------------------------------------------------


def _specs_for(family: str) -> list[FaultSpec]:
    if family == "transfer-fail":
        return [FaultSpec("transfer", "fail", match="h2d*",
                          probability=0.5, count=2)]
    if family == "transfer-stall":
        return [FaultSpec("transfer", "stall", match="*",
                          probability=0.5, count=3, seconds=1e-3)]
    if family == "transfer-hang":
        return [FaultSpec("transfer", "stall", match="d2h*",
                          probability=0.5, count=1)]  # seconds=None: hang
    if family == "fifo-corrupt":
        return [FaultSpec("fifo", "corrupt", match="*",
                          probability=0.05, count=1)]
    if family == "fifo-drop":
        return [FaultSpec("fifo", "drop", match="*",
                          probability=0.05, count=1)]
    if family == "fifo-persistent":
        # Strikes every retry too: recovery cannot converge, the budget
        # must exhaust into a typed error.
        return [FaultSpec("fifo", "corrupt", match="*",
                          probability=0.05, count=None)]
    if family == "stage-freeze":
        return [FaultSpec("stage", "freeze", match="*",
                          probability=0.3, count=1, at_cycle=50)]
    if family == "replica-kill":
        return [FaultSpec("replica", "kill", match="k1:*",
                          probability=0.5, count=1)]
    if family == "replica-slow":
        return [FaultSpec("replica", "slow", match="*",
                          probability=0.5, count=2, factor=3.0)]
    if family == "rank-drop":
        return [FaultSpec("rank", "drop", match="*",
                          probability=0.3, count=2)]
    if family == "device-loss":
        # Kill one named fleet lane permanently, mid-job; pair it with
        # background transfer faults so breaker evidence accumulates on
        # a survivor too.
        return [FaultSpec("device", "loss", match="u280-0",
                          probability=0.5, count=1),
                FaultSpec("transfer", "fail", match="u280-1:h2d*",
                          probability=0.1, count=2)]
    if family == "device-blip":
        # Transient downtime on any lane: breakers must re-admit via
        # the half-open probe once the blip elapses.
        return [FaultSpec("device", "blip", match="*",
                          probability=0.3, count=2, seconds=0.01)]
    raise ConfigurationError(
        f"unknown chaos family {family!r}; known: {list(CHAOS_FAMILIES)}"
    )


def _run_once(family: str, seed: int, nx: int, ny: int,
              nz: int) -> tuple[str, str | None, tuple, str, str | None]:
    """One scenario execution.

    Returns ``(status, error_name, trace_key, detail, fallback)`` where
    ``status`` is ``identical``/``completed``/``error``/
    ``silent-corruption`` and ``fallback`` is the batched engine's
    :attr:`~repro.dataflow.engine.RunStats.batch_fallback_reason` (when
    the scenario ran the exact engine and it fell back).
    """
    from repro.core.grid import Grid
    from repro.core.reference import advect_reference
    from repro.core.wind import random_wind

    plan = FaultPlan(_specs_for(family), seed=seed)
    retry = RetryPolicy(max_attempts=4)

    if family.startswith("device"):
        return _run_fleet_once(family, plan, retry, seed, nx, ny, nz)

    if family.startswith("transfer"):
        from repro.hardware.pcie import PCIeLink
        from repro.runtime.overlap import ChunkWork, build_overlapped_schedule
        from repro.runtime.simulator import simulate_schedule

        link = PCIeLink(streamed_bandwidth=8e9, synchronous_bandwidth=2e9)

        def build():
            chunks = [ChunkWork(index=i, in_bytes=1.5e6, out_bytes=0.75e6,
                                kernel_seconds=0.4e-3) for i in range(6)]
            return build_overlapped_schedule(chunks, link)

        golden = simulate_schedule(build())
        budget = golden.makespan * 20 + 0.1
        try:
            result = simulate_schedule(build(), fault_plan=plan, retry=retry,
                                       watchdog_seconds=budget)
        except ReproError as error:
            return "error", type(error).__name__, plan.trace_key(), "", None
        if result.makespan > budget:
            return ("watchdog-breach", None, plan.trace_key(),
                    f"makespan {result.makespan:.4g}s past {budget:.4g}s",
                    None)
        return "completed", None, plan.trace_key(), "", None

    grid = Grid(nx=nx, ny=ny, nz=nz)
    fields = random_wind(grid, seed=seed, magnitude=2.0)
    golden_sources = advect_reference(fields)
    fallback: str | None = None

    try:
        if family == "rank-drop":
            from repro.distributed.driver import DistributedAdvection
            from repro.distributed.topology import ProcessGrid

            topology = ProcessGrid(grid, 2, 3)
            driver = DistributedAdvection(topology, fault_plan=plan,
                                          retry=retry)
            sources = driver.compute(fields)
        else:
            from repro.kernel.config import KernelConfig
            from repro.kernel.simulate import simulate_kernel

            config = KernelConfig(grid=grid, chunk_width=max(2, ny // 3))
            result = simulate_kernel(
                config, fields,
                num_kernels=2 if family.startswith("replica") else 1,
                fault_plan=plan, retry=retry, watchdog=_WATCHDOG_CYCLES)
            sources = result.sources
            fallback = result.aggregate_stats().batch_fallback_reason
    except ReproError as error:
        return "error", type(error).__name__, plan.trace_key(), "", None

    if not sources.same_bits(golden_sources):
        diff = sources.max_abs_difference(golden_sources)
        detail = (f"max abs difference {diff:g} vs golden" if diff != 0.0
                  else "bytes differ from golden at max abs difference 0")
        return ("silent-corruption", None, plan.trace_key(), detail,
                fallback)
    return "identical", None, plan.trace_key(), "", fallback


def _run_fleet_once(family: str, plan: FaultPlan, retry: RetryPolicy,
                    seed: int, nx: int, ny: int, nz: int,
                    ) -> tuple[str, str | None, tuple, str, str | None]:
    """One fleet scenario: chaos leg vs fault-free golden leg.

    The same seeded Poisson load is offered twice — once to a fleet
    under the device fault plan, once to a pristine fleet — and every
    job that completed in both legs must carry the same checksum.  Jobs
    the chaos leg failed must have failed *typed* (the scheduler's
    driver converts only :class:`~repro.errors.ReproError` into
    outcomes; anything else propagates out of this function as a
    harness error).
    """
    from repro.serve import Fleet, FleetScheduler, PoissonLoad, run_load

    load = PoissonLoad(jobs=8, rate_hz=400.0, seed=seed, nx=nx, ny=ny,
                       nz=nz, exact_fraction=0.25, distinct_inputs=4)

    def one_leg(fault_plan: FaultPlan | None):
        fleet = Fleet.from_spec("2xu280+1xstratix10")
        scheduler = FleetScheduler(fleet, fault_plan=fault_plan,
                                   retry=retry)
        return run_load(scheduler, load)

    try:
        chaos_report = one_leg(plan)
    except ReproError as error:
        return "error", type(error).__name__, plan.trace_key(), "", None
    golden_report = one_leg(None)
    golden = {outcome.spec.job_id: outcome.result.checksum
              for outcome in golden_report.completed
              if outcome.result is not None}
    for outcome in chaos_report.completed:
        assert outcome.result is not None
        expected = golden.get(outcome.spec.job_id)
        if expected is not None and outcome.result.checksum != expected:
            return ("silent-corruption", None, plan.trace_key(),
                    f"job {outcome.spec.job_id} diverged from the "
                    "fault-free fleet run", None)
    counters = chaos_report.counters()
    detail = (f"{len(chaos_report.completed)}/"
              f"{len(chaos_report.outcomes)} jobs, "
              f"{counters['reshards']} reshards, "
              f"{counters['redrives']} redrives")
    errors = chaos_report.error_counts()
    if errors:
        detail += ", typed: " + ",".join(
            f"{name} x{count}" for name, count in errors.items())
    return "identical", None, plan.trace_key(), detail, None


def run_chaos(*, families: tuple[str, ...] | list[str] | None = None,
              seeds: int = 4, seed_base: int = 0, nx: int = 6, ny: int = 9,
              nz: int = 5) -> ChaosReport:
    """Sweep ``seeds`` seeded scenarios per family and judge each one.

    Seeds run from ``seed_base`` to ``seed_base + seeds - 1`` (CI shards
    the sweep across disjoint bases).  Every scenario runs **twice** with
    the same seed; diverging outcomes or fault traces are reported as
    ``nondeterministic`` violations.
    """
    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if seed_base < 0:
        raise ConfigurationError(f"seed_base must be >= 0, got {seed_base}")
    chosen = tuple(families) if families is not None else CHAOS_FAMILIES
    for family in chosen:
        _specs_for(family)  # validate names before running anything
    report = ChaosReport()
    for family in chosen:
        for seed in range(seed_base, seed_base + seeds):
            first = _run_once(family, seed, nx, ny, nz)
            second = _run_once(family, seed, nx, ny, nz)
            status, error, trace, detail, fallback = first
            events = len(trace)
            if first != second:
                report.outcomes.append(ChaosOutcome(
                    family=family, seed=seed, status="nondeterministic",
                    error=None, events=events, ok=False,
                    detail=f"replay diverged: {first[:2]} vs {second[:2]}"))
                continue
            ok = status in ("identical", "completed", "error")
            report.outcomes.append(ChaosOutcome(
                family=family, seed=seed, status=status, error=error,
                events=events, ok=ok, detail=detail,
                batch_fallback_reason=fallback))
    return report
