"""The four wall-clock workloads: inputs, the timed call, and its checks.

Each workload is built from ``--seed`` and runs on one of two input
sizes: the real input (what a timed child measures) or the tiny one
(the warm-up call, and the timed call under ``--smoke``).  The warm-up
always uses the tiny input drawn from ``seed + 1``, so it resolves lazy
imports without pre-filling any in-process memo for the timed input.

Correctness pins are control-only quantities (modelled cycle counts,
bitwise equality with a reference), so they hold for every seed.

``repro`` is imported inside the methods: a child's set-up time counts
from interpreter start, so the import cost belongs to set-up.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def same_bits(result: Any, reference: Any) -> bool:
    """Bitwise equality of two ``SourceSet`` values."""
    return all(a.tobytes() == b.tobytes()
               for a, b in zip(result.as_tuple(), reference.as_tuple()))


class Workload:
    """One benchmark workload; subclasses define the four hooks below."""

    name: str = ""
    #: what one unit of ``throughput`` counts.
    work_unit: str = ""
    #: R, the number of timed children per run.
    children: int = 3
    #: printed under the workload's metrics.
    note: str = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.tiny = smoke
        self.inputs = self.make_inputs(seed, smoke)
        self.warm_inputs = self.make_inputs(seed + 1, True)

    def warm_up(self) -> None:
        self.execute(self.warm_inputs)

    def call(self) -> Any:
        return self.execute(self.inputs)

    # -- per-workload hooks ---------------------------------------------------

    def make_inputs(self, seed: int, tiny: bool) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any) -> Any:
        raise NotImplementedError

    def checks(self, output: Any) -> list[tuple[str, bool]]:
        """``(description, passed)`` for every correctness check."""
        raise NotImplementedError

    def work(self, output: Any) -> int:
        """Units of ``work_unit`` the timed call produced."""
        raise NotImplementedError

    def digest(self, output: Any) -> str | None:
        """Output digest that must repeat across children (None: no check)."""
        return None


class Simulate64(Workload):
    """``repro simulate`` at paper scale: one 64^3 batched exact run."""

    name = "simulate-64"
    work_unit = "cells"
    children = 5
    #: modelled cycles of the whole run, by input size (tiny, real).
    CYCLES = {True: 5_233, False: 278_833}

    def make_inputs(self, seed: int, tiny: bool) -> Any:
        from repro.core.grid import Grid
        from repro.core.wind import random_wind

        n = 16 if tiny else 64
        grid = Grid(nx=n, ny=n, nz=n)
        return grid, random_wind(grid, seed=seed, magnitude=2.0)

    def execute(self, inputs: Any) -> Any:
        from repro.kernel.config import KernelConfig
        from repro.kernel.simulate import simulate_kernel

        grid, fields = inputs
        return simulate_kernel(KernelConfig(grid=grid), fields,
                               mode="exact", batched=True)

    def checks(self, output: Any) -> list[tuple[str, bool]]:
        from repro.core.coefficients import AdvectionCoefficients
        from repro.core.reference import advect_reference

        grid, fields = self.inputs
        reference = advect_reference(fields,
                                     AdvectionCoefficients.uniform(grid))
        cycles = self.CYCLES[self.tiny]
        return [
            ("sources bitwise equal advect_reference",
             same_bits(output.sources, reference)),
            (f"total_cycles == {cycles} (got {output.total_cycles})",
             output.total_cycles == cycles),
        ]

    def work(self, output: Any) -> int:
        return output.sources.grid.num_cells


class ScenarioSweep(Workload):
    """``repro simulate --scenario`` for every registered scenario."""

    name = "scenario-sweep"
    work_unit = "cells"
    children = 7
    #: modelled cycles per scenario on its (small, default) grid.
    CYCLES = {
        "buoyancy": (798, 3_342),
        "diffusion": (798, 3_342),
        "diffusion-batch": (1_746, 3_654),
        "pw-advection": (329, 5_233),
        "pw-advection-open": (273, 2_961),
        "pw-advection-tall": (409, 7_729),
    }

    def make_inputs(self, seed: int, tiny: bool) -> Any:
        from repro.scenarios import scenarios

        return seed, [(scenario,
                       scenario.small_grid() if tiny
                       else scenario.default_grid())
                      for scenario in scenarios()]

    def execute(self, inputs: Any) -> Any:
        seed, plan = inputs
        return [(scenario,
                 scenario.run(grid, seed=seed, mode="exact", batched=True),
                 scenario.reference(grid, seed=seed))
                for scenario, grid in plan]

    def checks(self, output: Any) -> list[tuple[str, bool]]:
        results = []
        for scenario, run, references in output:
            results.append((
                f"{scenario.name}: every batch bitwise equal its reference",
                len(run.batches) == len(references) and all(
                    same_bits(batch, reference)
                    for batch, reference in zip(run.batches, references)),
            ))
            pins = self.CYCLES.get(scenario.name)
            if pins is not None:
                cycles = pins[0] if self.tiny else pins[1]
                results.append((
                    f"{scenario.name}: total_cycles == {cycles} "
                    f"(got {run.total_cycles})",
                    run.total_cycles == cycles,
                ))
        return results

    def work(self, output: Any) -> int:
        return sum(run.grid.num_cells * scenario.batch
                   for scenario, run, _ in output)


class Tune64(Workload):
    """``repro tune --measure`` on the U280 at 64^3, with no cache file."""

    name = "tune-64"
    work_unit = "points"
    children = 2

    def make_inputs(self, seed: int, tiny: bool) -> Any:
        from repro.core.grid import Grid

        if tiny:
            return {"grid": Grid(8, 8, 8), "seed": seed, "budget": 8,
                    "measure_top_k": 1}
        return {"grid": Grid(64, 64, 64), "seed": seed, "measure_top_k": 2}

    def execute(self, inputs: Any) -> Any:
        from repro.tune import tune

        return tune("u280", **inputs)

    def checks(self, output: Any) -> list[tuple[str, bool]]:
        top_k = self.inputs["measure_top_k"]
        results = [(f"{top_k} candidates measured (got {len(output.measured)})",
                    len(output.measured) == top_k)]
        for measured in output.measured:
            results.append((
                f"{measured.point.key()}: measured_cycles "
                f"{measured.measured_cycles} == analytic_cycles "
                f"{measured.analytic_cycles}",
                measured.measured_cycles == measured.analytic_cycles,
            ))
        return results

    def work(self, output: Any) -> int:
        return len(output.evaluations)

    def digest(self, output: Any) -> str | None:
        return hashlib.sha256(output.to_json().encode()).hexdigest()


class ServeMixed(Workload):
    """``repro serve``: an open-loop Poisson load on a three-device fleet."""

    name = "serve-mixed"
    work_unit = "jobs"
    children = 4
    note = ("open loop on the modelled clock: arrivals follow the Poisson "
            "schedule, so generator lateness is 0 s by construction")
    FLEET = "2xu280+1xstratix10"

    def make_inputs(self, seed: int, tiny: bool) -> Any:
        if tiny:
            return fixed_mix_load(seed, jobs=8, size=8, distinct_inputs=4,
                                  exact_inputs=2)
        return fixed_mix_load(seed, jobs=96, size=16, distinct_inputs=24,
                              exact_inputs=19)

    def execute(self, inputs: Any) -> Any:
        from repro.serve import Fleet, FleetScheduler, run_load

        return run_load(FleetScheduler(Fleet.from_spec(self.FLEET)), inputs)

    def checks(self, output: Any) -> list[tuple[str, bool]]:
        from repro.core.reference import advect_reference
        from repro.serve import checksum_sources

        expected: dict[int, str] = {}
        results = []
        for outcome in output.outcomes:
            spec = outcome.spec
            if not outcome.ok:
                results.append((f"{spec.job_id}: failed with "
                                f"{type(outcome.error).__name__}", False))
                continue
            if spec.seed not in expected:
                expected[spec.seed] = checksum_sources(
                    advect_reference(spec.fields()))
            results.append((f"{spec.job_id}: checksum equals the reference",
                            outcome.result.checksum == expected[spec.seed]))
        return results

    def work(self, output: Any) -> int:
        return len(output.outcomes)

    def digest(self, output: Any) -> str | None:
        payload = json.dumps(output.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()


def fixed_mix_load(seed: int, *, jobs: int, size: int, distinct_inputs: int,
                   exact_inputs: int) -> Any:
    """The first Poisson load from ``seed * 1000`` on with a fixed mix.

    Host time is dominated by the distinct exact-tier inputs (each one a
    cycle-accurate simulation; repeats are cache hits), and a plain
    seeded load varies that count from 11 to 20 across seeds.  Holding it
    fixed keeps the work per run constant while the seed still moves the
    arrival times and every input field.  ``--seed 0`` maps to load
    seed 0, which already has 19 distinct exact inputs.
    """
    from repro.serve import PoissonLoad, build_arrivals

    for offset in range(1000):
        load = PoissonLoad(jobs=jobs, rate_hz=300.0, seed=seed * 1000 + offset,
                           nx=size, ny=size, nz=size, exact_fraction=0.25,
                           distinct_inputs=distinct_inputs)
        exact = {spec.seed for _, spec in build_arrivals(load)
                 if spec.mode == "exact"}
        if len(exact) == exact_inputs:
            return load
    raise RuntimeError(f"no load from seed {seed} has {exact_inputs} "
                       f"distinct exact-tier inputs")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Simulate64, ScenarioSweep, Tune64, ServeMixed)
}
