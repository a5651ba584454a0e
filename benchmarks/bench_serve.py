"""Serving-fleet regression harness: latency, recovery, bit-identity.

Offers the same seeded Poisson load to the fleet scheduler twice — a
fault-free leg and a chaos leg whose fault plan kills one device lane,
blips another, and batters a third with transfer faults — then gates:

* every job on both legs completes bit-identical to the fault-free
  golden checksums or fails with a typed ``ReproError`` (the serving
  invariant; a silent divergence is an immediate failure),
* the chaos leg actually exercises recovery: at least one reshard, and
  some breaker walks the full ``closed -> open -> half-open -> closed``
  re-admission cycle,
* the chaos leg replays deterministically (identical report dicts for
  identical seeds),
* modelled p99 latency on the fault-free leg stays under
  ``--max-p99-ms`` of modelled time,
* neither leg runs the cycle engine: the exact tier reads its count
  from the closed form and the stencil proofs, so each leg's
  ``DataflowEngine.run`` call count (``engine_runs`` in its record)
  must read 0.

Wall times and modelled latencies for both legs are recorded to
``benchmarks/BENCH_serve.json`` (scratch path + relaxed gates with
``--smoke`` for CI).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # 24 jobs
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke \
        --output /tmp/bench_serve.json

Exit status is non-zero on any gate failure.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from unittest import mock

from repro.dataflow.engine import DataflowEngine
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.perf.bench import BenchRecord, BenchSuite, render_table
from repro.serve import (Fleet, FleetScheduler, PoissonLoad, percentile,
                         run_load)

DEFAULT_OUTPUT = "benchmarks/BENCH_serve.json"
FLEET_SPEC = "2xu280+1xstratix10"


def chaos_plan(seed: int) -> FaultPlan:
    """Deterministic worst-week plan: loss + blip + flaky transfers."""
    return FaultPlan([
        FaultSpec("device", "loss", match="u280-0", probability=1.0,
                  count=1),
        FaultSpec("device", "blip", match="stratix10-0", probability=1.0,
                  count=1, seconds=0.01),
        FaultSpec("transfer", "fail", match="u280-1:h2d*",
                  probability=0.6, count=4),
    ], seed=seed)


def timed_run(load: PoissonLoad, plan: FaultPlan | None):
    """One leg: its report, wall seconds and engine run count."""
    scheduler = FleetScheduler(Fleet.from_spec(FLEET_SPEC),
                               fault_plan=plan, watchdog_seconds=60.0)
    with mock.patch.object(DataflowEngine, "run", autospec=True,
                           side_effect=DataflowEngine.run) as engine_run:
        start = time.perf_counter()
        report = run_load(scheduler, load)
        wall = time.perf_counter() - start
    return report, wall, engine_run.call_count


def leg_record(name: str, report, wall: float, engine_runs: int,
               load: PoissonLoad, mode: str) -> BenchRecord:
    latencies = report.latencies
    counters = report.counters()
    return BenchRecord(
        name=name, wall_seconds=wall, cycles=load.jobs,
        cells=load.nx * load.ny * load.nz, mode=mode,
        extra={
            "completed": len(report.completed),
            "failed": len(report.failed),
            "makespan_ms": round(report.makespan_seconds * 1e3, 3),
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
            "jobs_per_modelled_second": round(report.jobs_per_second, 1),
            "reshards": counters["reshards"],
            "redrives": counters["redrives"],
            "degraded": counters["degraded"],
            "cache_hits": counters["cache_hits"],
            "engine_runs": engine_runs,
        })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=24)
    parser.add_argument("--rate", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos-seed", type=int, default=0)
    parser.add_argument("--nx", type=int, default=8)
    parser.add_argument("--ny", type=int, default=9)
    parser.add_argument("--nz", type=int, default=8)
    parser.add_argument("--max-p99-ms", type=float, default=50.0,
                        help="fail when the fault-free leg's modelled "
                             "p99 exceeds this (default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="fewer jobs + relaxed gates (CI smoke run)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="record file (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.jobs = min(args.jobs, 12)
        args.max_p99_ms = max(args.max_p99_ms, 100.0)

    load = PoissonLoad(jobs=args.jobs, rate_hz=args.rate, seed=args.seed,
                       nx=args.nx, ny=args.ny, nz=args.nz,
                       exact_fraction=0.25, distinct_inputs=8)
    label = f"{args.jobs}jobs-{args.nx}x{args.ny}x{args.nz}"

    clean, t_clean, runs_clean = timed_run(load, None)
    chaos, t_chaos, runs_chaos = timed_run(load, chaos_plan(args.chaos_seed))
    replay, _, _ = timed_run(load, chaos_plan(args.chaos_seed))

    errors = []
    if clean.failed:
        errors.append(
            f"fault-free leg failed {len(clean.failed)} job(s): "
            f"{clean.error_counts()}")
    golden = {o.spec.job_id: o.result.checksum for o in clean.completed}

    for outcome in chaos.outcomes:
        if outcome.ok:
            expected = golden.get(outcome.spec.job_id)
            if expected is not None \
                    and outcome.result.checksum != expected:
                errors.append(f"SILENT DIVERGENCE: {outcome.spec.job_id} "
                              "checksum differs from the fault-free leg")
        elif not isinstance(outcome.error, ReproError):
            errors.append(f"untyped failure on {outcome.spec.job_id}: "
                          f"{type(outcome.error).__name__}")

    counters = chaos.counters()
    if counters["reshards"] < 1:
        errors.append("chaos leg never resharded: the loss fault "
                      "did not exercise recovery")
    moves = {(t["from"], t["to"]) for t in chaos.breaker_transitions()}
    for leg in (("closed", "open"), ("open", "half-open"),
                ("half-open", "closed")):
        if leg not in moves:
            errors.append(f"breaker never took the {leg[0]} -> {leg[1]} "
                          "transition: re-admission not exercised")
    if chaos.to_dict() != replay.to_dict():
        errors.append("chaos leg is nondeterministic: identical seeds "
                      "produced different reports")

    for leg, runs in (("fault-free", runs_clean), ("chaos", runs_chaos)):
        if runs:
            errors.append(f"{leg} leg ran the cycle engine {runs} time(s); "
                          "the exact tier must read its count without a run")

    p99_ms = 1e3 * percentile(clean.latencies, 0.99)
    if p99_ms > args.max_p99_ms:
        errors.append(f"fault-free p99 {p99_ms:.2f} ms exceeds the "
                      f"{args.max_p99_ms:.2f} ms gate")

    suite = BenchSuite(context={
        "fleet": FLEET_SPEC,
        "load": load.to_dict(),
        "chaos_seed": args.chaos_seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "clean_p99_ms": round(p99_ms, 3),
        "chaos_completed": len(chaos.completed),
        "chaos_failed": len(chaos.failed),
        "invariant_ok": not errors,
    })
    suite.add(leg_record(f"serve-{label}-clean", clean, t_clean, runs_clean,
                         load, "fault-free"))
    suite.add(leg_record(f"serve-{label}-chaos", chaos, t_chaos, runs_chaos,
                         load, "chaos"))

    print(render_table(suite.records))
    print(f"\nfault-free p99: {p99_ms:.3f} ms  (gate {args.max_p99_ms} ms)")
    print(f"engine runs: {runs_clean} fault-free, {runs_chaos} chaos "
          f"(gate 0)")
    print(f"chaos leg: {len(chaos.completed)}/{load.jobs} completed, "
          f"{counters['reshards']} reshard(s), "
          f"{counters['redrives']} redrive(s), "
          f"{len(chaos.breaker_transitions())} breaker transition(s)")

    if errors:
        for err in errors:
            print(f"GATE FAILURE: {err}", file=sys.stderr)
        return 1

    path = suite.write(args.output)
    print(f"records written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
