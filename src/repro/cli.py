"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [ids...]``
    Regenerate the paper's tables and figures (default: all).
``run --device u280 --cells 16M [--no-overlap] [--memory ddr]``
    One end-to-end run on a device model, with a Gantt timeline.
``validate [--nx 6 --ny 9 --nz 5]``
    Cross-check every kernel execution path against the reference.
``simulate [--nx 32 --ny 32 --nz 32] [--no-batched] [--kernels N]``
    Cycle-accurate simulation of one kernel invocation; steady-state
    windows run batched (identical cycle counts and data), and
    ``--no-batched`` forces the per-cycle loop.  ``--mode fast`` is a
    deprecated alias of the default ``--mode exact``.
    ``--scenario NAME`` runs a registered workload-suite scenario
    (diffusion, buoyancy, grid/boundary/batch variants of advection)
    instead, with a bitwise reference check and the scenario's derived
    ops-per-cycle roofline.
``scenarios [names...] [--conformance] [--check-cli] [--json]``
    The workload suite: list the scenario registry, run the cross-mode
    conformance harness (forced-scalar vs batched vs NumPy reference,
    plus an injected-fault leg, lint and static-analysis coverage, per
    scenario), and verify every kernel reachable from the
    CLI is registered (non-zero exit on any failure).
``devices``
    Print the device catalog with kernel fits and clocks.
``lint [specs...] [--device u280] [--kernels 6] [--json]``
    Synthesis-time static diagnostics over dataflow graphs, kernel
    configurations, and device budgets (non-zero exit on errors).
``analyze [specs...] [--tokens N] [--json] [--check] [--fix-depths P]``
    Static dataflow verification without running the engine: proves
    deadlock-freedom, minimal stall-free FIFO depths, start cycles,
    prime latency and the steady-state period; ``--check`` replays the
    proof against the exact engine, ``--fix-depths`` writes a patched
    spec with minimal safe depths (non-zero exit on proved collapse).
``chaos [--seeds 4] [--families fifo-corrupt,rank-drop] [--json]``
    Seeded fault-injection sweep asserting the resilience invariant:
    every run completes bit-identical to the fault-free golden output or
    raises a typed error within its watchdog budget (non-zero exit on
    any violation).
``trace --out trace.json [--nx 64 ...] [--device u280]``
    Cycle-accurate run under the observability tracer, merged with the
    device's command-queue schedule into one Chrome/Perfetto JSON:
    engine-stage spans, shift-buffer prime/steady phases, kernel chunk
    spans and host transfer/compute events, all in one file.
``metrics [--nx 64 ...] [--json]``
    Metric-registry dump of one cycle-accurate run plus the
    achieved-vs-theoretical ops-per-cycle roofline report (the paper's
    62.875 figure at the default column height).
``tune --device u280 [--strategy anneal] [--budget N] [--json]``
    Design-space exploration over chunk width, kernel replicas, FIFO
    depth, precision, memory space and host schedule; prints the best
    deployment and the (GFLOPS, utilisation, watts) Pareto front, with
    optional simulation-backed refinement of the top candidates.
    ``--backend versal_aie`` explores the AI-engine array axes instead
    (tile columns x engines x vector lanes x buffering) and adds the
    cross-architecture front spanning U280 / Stratix 10 / Versal /
    CPU / GPU.  ``simulate``, ``lint``, ``analyze`` and ``scenarios``
    accept the same ``--backend`` flag (see docs/backends.md).
``serve [--fleet 2xu280+1xstratix10] [--jobs 24] [--rate 300] [--chaos]``
    Advection-as-a-service fleet scheduler under a seeded Poisson load:
    admission-priced jobs, exact->functional degradation, per-device circuit
    breakers, and device-loss resharding with bit-identical results;
    ``--chaos`` injects device/transfer faults, ``--trace`` writes the
    per-lane Perfetto timeline (non-zero exit if a chaos leg breaks the
    bit-identity-or-typed-error invariant).

Every command follows the exit-code table in docs/api.md: a handler
returns 0, or 1 for a failed verdict, and raises a
:class:`~repro.errors.ReproError` for anything else, which :func:`main`
alone prints as one ``error:`` line and maps to its class's ``exit_code``.
"""

from __future__ import annotations

import argparse
import sys

from repro import constants
from repro.errors import (BackendError, ConfigurationError, LintError,
                          ReproError)

__all__ = ["main", "build_parser"]


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("exact", "fast"), default="exact",
                        help="engine mode; 'fast' is a deprecated alias "
                             "of 'exact'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Accelerating advection for "
                    "atmospheric modelling on Xilinx and Intel FPGAs' "
                    "(CLUSTER 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments",
                           help="regenerate paper tables/figures")
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (default: all)")

    p_run = sub.add_parser("run", help="simulate one end-to-end run")
    p_run.add_argument("--device", default="u280",
                       help="u280 | stratix10 | cpu | v100")
    p_run.add_argument("--cells", default="16M",
                       help="problem size label "
                            f"({', '.join(constants.PAPER_GRID_LABELS)})")
    p_run.add_argument("--memory", default=None,
                       help="force a memory space (hbm2 | ddr)")
    p_run.add_argument("--no-overlap", action="store_true",
                       help="use the sequential (Fig. 5) schedule")
    p_run.add_argument("--kernels", type=int, default=None,
                       help="kernel replicas (default: as many as fit)")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="write a chrome://tracing JSON of the schedule")

    p_val = sub.add_parser("validate",
                           help="cross-check all kernel paths vs reference")
    p_val.add_argument("--nx", type=int, default=6)
    p_val.add_argument("--ny", type=int, default=9)
    p_val.add_argument("--nz", type=int, default=5)
    p_val.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate",
                           help="cycle-accurate kernel simulation")
    p_sim.add_argument("--scenario", default=None, metavar="NAME",
                       help="run a registered workload-suite scenario "
                            "(see 'repro scenarios'); grid defaults to "
                            "the scenario's grid family")
    p_sim.add_argument("--backend", default=None, metavar="ID",
                       help="target a registered hardware backend; "
                            "non-default backends print the analytic "
                            "invocation summary and the roofline "
                            "cross-check instead of a cycle-accurate run")
    p_sim.add_argument("--nx", type=int, default=None)
    p_sim.add_argument("--ny", type=int, default=None)
    p_sim.add_argument("--nz", type=int, default=None)
    p_sim.add_argument("--chunk-width", type=int, default=None)
    p_sim.add_argument("--read-ii", type=int, default=None,
                       help="read-stage initiation interval of every "
                            "kernel (default 1)")
    _add_mode_flag(p_sim)
    p_sim.add_argument("--no-batched", action="store_true",
                       help="disable batched exact execution (escape "
                            "hatch: force the pure per-cycle loop)")
    p_sim.add_argument("--kernels", type=int, default=None,
                       help="co-simulate N kernels sharing one memory")
    p_sim.add_argument("--memory-rate", type=float, default=None,
                       help="shared-memory cell reads per cycle "
                            "(multi-kernel only)")
    p_sim.add_argument("--seed", type=int, default=0)

    sub.add_parser("devices", help="print the device catalog")

    p_scen = sub.add_parser(
        "scenarios",
        help="workload suite: registry listing, cross-mode conformance, "
             "CLI kernel coverage",
    )
    p_scen.add_argument("names", nargs="*", metavar="NAME",
                        help="scenario subset (default: the whole "
                             "registry)")
    p_scen.add_argument("--conformance", action="store_true",
                        help="run the cross-mode conformance harness "
                             "(scalar/batched/reference + fault leg + "
                             "lint + static analysis)")
    p_scen.add_argument("--check-cli", action="store_true",
                        help="fail if any kernel reachable from the CLI "
                             "has no registered scenario")
    p_scen.add_argument("--backend", default=None, metavar="ID",
                        help="price every listed scenario on a registered "
                             "hardware backend (adds a backend_pricing "
                             "section; non-zero exit if any scenario has "
                             "no feasible deployment)")
    p_scen.add_argument("--seed", type=int, default=0)
    p_scen.add_argument("--json", action="store_true",
                        help="emit the listing (and any results) as "
                             "JSON")

    p_score = sub.add_parser("scorecard",
                             help="overall paper-reproduction scorecard")
    p_score.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full summary JSON")
    p_score.add_argument("--tolerance", type=float, default=15.0,
                         help="quantitative tolerance in percent")

    p_report = sub.add_parser("report",
                              help="regenerate the markdown "
                                   "reproduction report")
    p_report.add_argument("path", nargs="?", default=None,
                          help="output file (default: stdout)")

    p_lint = sub.add_parser(
        "lint",
        help="static diagnostics over graphs, configs and device budgets",
    )
    p_lint.add_argument("specs", nargs="*", metavar="SPEC",
                        help="JSON design specs (see docs/linting.md); "
                             "default: lint the kernel built from the flags")
    p_lint.add_argument("--scenario", default=None, metavar="NAME",
                        help="lint a registered workload-suite scenario's "
                             "dataflow graph instead")
    p_lint.add_argument("--backend", default=None, metavar="ID",
                        help="lint through a registered hardware backend "
                             "(fpga_shiftbuffer | versal_aie); the "
                             "default path is the fpga_shiftbuffer family")
    p_lint.add_argument("--device", default=None,
                        help="target device (u280 | stratix10 | vc1902; "
                             "default: the backend's default device)")
    p_lint.add_argument("--cells", default="16M",
                        help="problem size label "
                             f"({', '.join(constants.PAPER_GRID_LABELS)})")
    p_lint.add_argument("--nx", type=int, default=None)
    p_lint.add_argument("--ny", type=int, default=None)
    p_lint.add_argument("--nz", type=int, default=None)
    p_lint.add_argument("--chunk-width", type=int, default=None)
    p_lint.add_argument("--kernels", type=int, default=None,
                        help="kernel replicas to budget-check")
    p_lint.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes/prefixes/families "
                             "to run (e.g. DF,RS201)")
    p_lint.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes/prefixes/families "
                             "to skip")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    p_lint.add_argument("--strict", action="store_true",
                        help="non-zero exit on warnings too")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")

    p_ana = sub.add_parser(
        "analyze",
        help="static dataflow verification: deadlock proofs, minimal "
             "FIFO depths, cycle/period bounds",
    )
    p_ana.add_argument("specs", nargs="*", metavar="SPEC",
                       help="JSON design specs (see docs/static-analysis.md)"
                            "; default: analyze the kernel graph built "
                            "from the flags")
    p_ana.add_argument("--scenario", default=None, metavar="NAME",
                       help="analyze a registered workload-suite "
                            "scenario's dataflow graph instead")
    p_ana.add_argument("--backend", default=None, metavar="ID",
                       help="analyze a hardware backend's lowered graph "
                            "(fpga_shiftbuffer | versal_aie)")
    p_ana.add_argument("--cells", default="16M",
                       help="problem size label "
                            f"({', '.join(constants.PAPER_GRID_LABELS)})")
    p_ana.add_argument("--nx", type=int, default=None)
    p_ana.add_argument("--ny", type=int, default=None)
    p_ana.add_argument("--nz", type=int, default=None)
    p_ana.add_argument("--chunk-width", type=int, default=None)
    p_ana.add_argument("--read-ii", type=int, default=1,
                       help="read-stage initiation interval")
    p_ana.add_argument("--tokens", type=int, default=None,
                       help="tokens to push through the abstract machine "
                            "(default: enough to reach steady state)")
    p_ana.add_argument("--check", action="store_true",
                       help="cross-check every proved total against the "
                            "exact DataflowEngine on the token twin")
    p_ana.add_argument("--fix-depths", default=None, metavar="PATH",
                       help="write a patched copy of the (single) spec "
                            "with minimal safe FIFO depths")
    p_ana.add_argument("--json", action="store_true",
                       help="emit the reports as JSON")
    p_ana.add_argument("--strict", action="store_true",
                       help="non-zero exit on transient stalls too, not "
                            "just proved collapse/deadlock")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep over the resilient runtime",
    )
    p_chaos.add_argument("--seeds", type=int, default=4,
                         help="seeds per scenario family (default 4)")
    p_chaos.add_argument("--seed-base", type=int, default=0,
                         help="first seed of the sweep (CI shards "
                              "disjoint bases; default 0)")
    p_chaos.add_argument("--families", default=None, metavar="NAMES",
                         help="comma-separated family subset "
                              "(default: all families)")
    p_chaos.add_argument("--nx", type=int, default=6)
    p_chaos.add_argument("--ny", type=int, default=9)
    p_chaos.add_argument("--nz", type=int, default=5)
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="quick sweep: 2 seeds over the smoke "
                              "family subset")

    p_trace = sub.add_parser(
        "trace",
        help="emit one Chrome/Perfetto JSON of engine spans + schedule",
    )
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="output JSON path (default trace.json)")
    p_trace.add_argument("--nx", type=int, default=64)
    p_trace.add_argument("--ny", type=int, default=64)
    p_trace.add_argument("--nz", type=int, default=64)
    p_trace.add_argument("--chunk-width", type=int, default=None)
    _add_mode_flag(p_trace)
    p_trace.add_argument("--device", default="u280",
                         help="device whose schedule and clock to trace "
                              "(u280 | stratix10)")
    p_trace.add_argument("--no-overlap", action="store_true",
                         help="trace the sequential (Fig. 5) schedule")
    p_trace.add_argument("--seed", type=int, default=0)

    p_metrics = sub.add_parser(
        "metrics",
        help="metric-registry dump + ops-per-cycle roofline report",
    )
    p_metrics.add_argument("--nx", type=int, default=64)
    p_metrics.add_argument("--ny", type=int, default=64)
    p_metrics.add_argument("--nz", type=int, default=64)
    p_metrics.add_argument("--chunk-width", type=int, default=None)
    _add_mode_flag(p_metrics)
    p_metrics.add_argument("--clock-mhz", type=float, default=None,
                           help="also report achieved GFLOPS at this "
                                "kernel clock")
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--json", action="store_true",
                           help="emit the registry snapshot and roofline "
                                "report as JSON")

    p_tune = sub.add_parser(
        "tune",
        help="design-space exploration over deployment parameters",
    )
    p_tune.add_argument("--backend", default=None, metavar="ID",
                        help="hardware backend (fpga_shiftbuffer | "
                             "versal_aie; default fpga_shiftbuffer)")
    p_tune.add_argument("--device", default=None,
                        help="target device (u280 | stratix10 | vc1902; "
                             "default: the backend's default device)")
    p_tune.add_argument("--scenario", default=None, metavar="NAME",
                        help="tune for a registered workload-suite "
                             "scenario: its default grid and its "
                             "operation-intensity scale")
    p_tune.add_argument("--strategy", default="greedy",
                        choices=("grid", "greedy", "anneal"),
                        help="search strategy (default greedy)")
    p_tune.add_argument("--objective", default="kernel",
                        choices=("kernel", "end_to_end", "efficiency"),
                        help="scalar the search maximises")
    p_tune.add_argument("--budget", type=int, default=None,
                        help="max distinct evaluations "
                             "(default: the full space)")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--cells", default=None,
                        help="problem size label "
                             f"({', '.join(constants.PAPER_GRID_LABELS)})")
    p_tune.add_argument("--nx", type=int, default=64)
    p_tune.add_argument("--ny", type=int, default=64)
    p_tune.add_argument("--nz", type=int, default=64)
    p_tune.add_argument("--wide-precision", action="store_true",
                        help="open the float32/bfloat16 axis")
    p_tune.add_argument("--measure", type=int, default=0, metavar="K",
                        help="re-score the top K candidates with the "
                             "batched exact simulator")
    p_tune.add_argument("--cache", default=None, metavar="PATH",
                        help="persistent JSON evaluation cache")
    p_tune.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Perfetto JSON of the search")
    p_tune.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    p_tune.add_argument("--pareto", default=None, metavar="PATH",
                        help="also write the Pareto front as JSON")
    p_tune.add_argument("--expect-kernels", type=int, default=None,
                        help="non-zero exit unless the best point uses "
                             "exactly this many replicas (CI anchor)")

    p_serve = sub.add_parser(
        "serve",
        help="fault-tolerant fleet scheduler under a seeded Poisson load",
    )
    p_serve.add_argument("--fleet", default=None, metavar="SPEC",
                         help="fleet spec like 2xu280+1xstratix10+cpu "
                              "(default 2xu280+1xstratix10)")
    p_serve.add_argument("--jobs", type=int, default=24,
                         help="jobs in the offered load (default 24)")
    p_serve.add_argument("--rate", type=float, default=300.0,
                         help="mean arrivals per modelled second")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="load seed (arrivals, tenants, tier mix)")
    p_serve.add_argument("--scenario", default=None, metavar="NAME",
                         help="serve a registered workload-suite scenario "
                              "instead of plain advection (admission "
                              "quotes scale by the scenario's operation "
                              "intensity)")
    p_serve.add_argument("--nx", type=int, default=8)
    p_serve.add_argument("--ny", type=int, default=9)
    p_serve.add_argument("--nz", type=int, default=8)
    p_serve.add_argument("--exact-fraction", type=float, default=0.25,
                         help="fraction of jobs requesting the exact tier")
    p_serve.add_argument("--deadline-ms", type=float, default=None,
                         help="per-job deadline in modelled milliseconds")
    p_serve.add_argument("--chaos", action="store_true",
                         help="inject device-loss/blip and transfer faults")
    p_serve.add_argument("--chaos-seed", type=int, default=0,
                         help="fault-plan seed for --chaos")
    p_serve.add_argument("--json", action="store_true",
                         help="emit the full serve report as JSON")
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="write the per-lane fleet Perfetto JSON")
    p_serve.add_argument("--metrics", action="store_true",
                         help="also print the per-tenant metric registry")
    return parser


def _grid_from_flags(args, *, default: int):
    """Grid from ``--nx/--ny/--nz``; an axis not given takes ``default``.

    Compares against ``None``, never truthiness, so an explicit ``0``
    reaches :class:`~repro.core.grid.Grid` and fails its validation.
    """
    from repro.core.grid import Grid

    return Grid(*(default if n is None else n
                  for n in (args.nx, args.ny, args.nz)))


def _given_grid(args):
    """Grid from ``--nx/--ny/--nz``, or ``None`` when none is given.

    The three flags go together; a partial set is an input error.
    """
    from repro.core.grid import Grid

    dims = (args.nx, args.ny, args.nz)
    if dims == (None, None, None):
        return None
    if None in dims:
        raise ConfigurationError("--nx/--ny/--nz must be given together")
    return Grid(*dims)


def _kernel_config(grid, chunk_width: int | None):
    """Kernel config for ``grid``; ``None`` keeps the default chunk width."""
    from repro.kernel.config import KernelConfig

    if chunk_width is None:
        return KernelConfig(grid=grid)
    return KernelConfig(grid=grid, chunk_width=chunk_width)


def _cmd_experiments(args) -> int:
    from repro.experiments.run_all import main as run_all_main

    return run_all_main(args.ids)


def _cmd_run(args) -> int:
    from repro.core.grid import Grid
    from repro.hardware import device_by_name
    from repro.kernel.config import KernelConfig
    from repro.runtime.gantt import render_gantt
    from repro.runtime.session import AdvectionSession

    grid = Grid.from_label(args.cells)
    device = device_by_name(args.device)
    session = AdvectionSession(device, KernelConfig(grid=grid),
                               num_kernels=args.kernels, memory=args.memory)
    result = session.run(grid, overlapped=not args.no_overlap)

    print(f"device:   {result.device}")
    print(f"problem:  {result.grid_cells / 1e6:.1f}M cells "
          f"({grid.interior_shape})")
    print(f"schedule: {'overlapped' if result.overlapped else 'sequential'}"
          f", memory={result.memory}, kernels={result.num_kernels}")
    print(f"runtime:  {result.runtime_seconds * 1e3:.2f} ms")
    print(f"perf:     {result.gflops:.2f} GFLOPS overall")
    print(f"power:    {result.average_watts:.1f} W "
          f"({result.gflops_per_watt:.3f} GFLOPS/W)")
    if result.schedule is not None:
        print()
        print(render_gantt(result.schedule, title="engine timeline"))
        if args.trace:
            from repro.runtime.trace_export import write_chrome_trace

            path = write_chrome_trace(
                result.schedule, args.trace,
                process_name=f"{args.device}-{args.cells}")
            print(f"\nwrote chrome://tracing file: {path}")
    return 0


def _cmd_validate(args) -> int:
    from repro.core.coefficients import AdvectionCoefficients
    from repro.core.grid import Grid
    from repro.core.reference import advect_reference
    from repro.core.golden import advect_golden
    from repro.core.wind import random_wind
    from repro.kernel.config import KernelConfig
    from repro.kernel.functional import execute_chunked
    from repro.kernel.simulate import simulate_kernel

    grid = Grid(nx=args.nx, ny=args.ny, nz=args.nz)
    fields = random_wind(grid, seed=args.seed, magnitude=2.0)
    coeffs = AdvectionCoefficients.isothermal(grid)
    config = KernelConfig(grid=grid, chunk_width=max(2, grid.ny // 3))
    reference = advect_reference(fields, coeffs)

    checks = {
        "scalar golden": advect_golden(fields, coeffs),
        "chunked functional": execute_chunked(config, fields, coeffs),
        "forced-scalar simulation": simulate_kernel(
            config, fields, coeffs, batched=False).sources,
        "cycle-accurate simulation": simulate_kernel(config, fields,
                                                     coeffs).sources,
    }
    failed = 0
    for name, sources in checks.items():
        ok, status = _bitwise_status([(sources, reference)])
        print(f"{name:>28}: {status}")
        failed += not ok
    return 1 if failed else 0


def _bitwise_status(pairs) -> tuple[bool, str]:
    """Whether every ``(output, reference)`` pair has the same bytes, and
    a status naming the max difference, or the bytes when that reads 0."""
    pairs = list(pairs)
    if all(out.same_bits(ref) for out, ref in pairs):
        return True, "OK (bitwise)"
    diff = max(out.max_abs_difference(ref) for out, ref in pairs)
    if diff == 0.0:
        return False, "FAIL (bytes differ at max diff 0)"
    return False, f"FAIL (max diff {diff:g})"


def _cmd_simulate_scenario(args) -> int:
    from repro.observe import ops_per_cycle_report
    from repro.scenarios import get

    ignored = [flag for flag, value in (("--kernels", args.kernels),
                                        ("--chunk-width", args.chunk_width),
                                        ("--read-ii", args.read_ii))
               if value is not None]
    if ignored:
        raise ConfigurationError(
            f"{', '.join(ignored)} cannot be combined with --scenario on "
            f"simulate: a scenario runs its own kernel configuration")
    scenario = get(args.scenario)
    grid = _given_grid(args) or scenario.default_grid()

    batched = not args.no_batched
    result = scenario.run(grid, seed=args.seed, mode=args.mode,
                          batched=batched)
    references = scenario.reference(grid, seed=args.seed)
    ok, status = _bitwise_status(zip(result.batches, references))

    model = scenario.kernel.op_model
    report = ops_per_cycle_report(
        result.stats, nz=grid.nz, cycles=result.total_cycles,
        flops=scenario.batch * scenario.grid_flops(grid),
        ops_per_cell=model.ops_per_cell,
        ops_per_top_cell=model.ops_per_top_cell)

    print(f"scenario: {scenario.name} — {scenario.title}")
    print(f"grid:     {grid.interior_shape} "
          f"[{scenario.grids.name}], boundary={scenario.boundary}, "
          f"wind={scenario.wind}, batch={scenario.batch}, "
          f"mode={args.mode}")
    print(f"cycles:   {result.total_cycles} "
          f"({result.cells_per_cycle:.3f} cells/cycle)")
    _print_batched_split(result.total_cycles, result.stats.batched_cycles,
                         result.stats.batched_windows,
                         result.stats.batch_fallback_reason)
    print(report.summary())
    print(f"reference: {status}")
    return 0 if ok else 1


def _cmd_simulate_backend(args, backend) -> int:
    """Analytic invocation summary for a backend with no cycle engine."""
    grid = _grid_from_flags(args, default=64)
    device = backend.resolve_device()
    model = backend.cost_model(device, grid)
    if hasattr(backend, "canonical_point"):
        point = backend.canonical_point(device, tile_columns=args.kernels)
    else:  # pragma: no cover - no such backend registered today
        point = next(iter(backend.scenario_candidates(device, grid)))
    evaluation = model.evaluate(point)
    roofline = backend.roofline(grid.nz)

    print(f"backend:  {backend.id} ({backend.title})")
    print(f"device:   {device.name}")
    print(f"grid:     {grid.interior_shape}, point {point.key()}")
    if not evaluation.feasible:
        print(f"rejected: {evaluation.reject_reason}")
        return 1
    bound = "feed-bound" if evaluation.memory_bound else "compute-bound"
    print(f"kernel:   {evaluation.kernel_gflops:.2f} GFLOPS analytic "
          f"({evaluation.kernel_seconds * 1e3:.3f} ms, {bound})")
    print(f"host:     {evaluation.runtime_seconds * 1e3:.3f} ms "
          f"end-to-end ({evaluation.end_to_end_gflops:.2f} GFLOPS "
          f"incl. transfers)")
    print(f"power:    {evaluation.watts:.1f} W "
          f"({evaluation.gflops_per_watt:.3f} GFLOPS/W)")
    line = f"roofline: {roofline['attainable_gflops']:.2f} GFLOPS attainable"
    if "projection_attainable_gflops" in roofline:
        verdict = ("consistent" if roofline["projection_consistent"]
                   else "INCONSISTENT")
        line += (f"; projection "
                 f"{roofline['projection_attainable_gflops']:.2f} "
                 f"[{verdict}]")
    print(line)
    return 0


def _cmd_simulate(args) -> int:
    import time

    from repro.core.wind import random_wind
    from repro.kernel.simulate import simulate_kernel

    if args.memory_rate is not None and args.kernels is None:
        raise ConfigurationError(
            "--memory-rate is the shared-memory rate of --kernels N; "
            "give --kernels too")
    if args.backend:
        from repro.backend import DEFAULT_BACKEND, get_backend

        backend = get_backend(args.backend)
        if backend.id != DEFAULT_BACKEND:
            if args.scenario:
                raise ConfigurationError(
                    "--backend and --scenario are mutually exclusive on "
                    "simulate")
            return _cmd_simulate_backend(args, backend)
        # The default backend *is* the cycle-accurate shift-buffer
        # path below; naming it explicitly changes nothing.
    if args.scenario:
        return _cmd_simulate_scenario(args)
    grid = _grid_from_flags(args, default=32)
    fields = random_wind(grid, seed=args.seed, magnitude=2.0)
    config = _kernel_config(grid, args.chunk_width)

    start = time.perf_counter()
    result = simulate_kernel(
        config, fields,
        num_kernels=1 if args.kernels is None else args.kernels,
        memory_cells_per_cycle=args.memory_rate,
        read_ii=1 if args.read_ii is None else args.read_ii,
        mode=args.mode, batched=not args.no_batched)
    elapsed = time.perf_counter() - start
    stats = result.aggregate_stats()
    if result.arbiter is not None:
        print(f"grid:     {grid.interior_shape}, "
              f"{result.num_kernels} kernels, mode={args.mode}")
        print(f"cycles:   {result.total_cycles} "
              f"(chunks: {result.chunk_cycles})")
        print(f"memory:   {result.arbiter.grants} grants, "
              f"{result.arbiter.denials} denials "
              f"({result.read_starvation_fraction:.1%} starved)")
    else:
        print(f"grid:     {grid.interior_shape}, mode={args.mode}")
        print(f"cycles:   {result.total_cycles} "
              f"({result.cells_per_cycle:.3f} cells/cycle)")
    _print_batched_split(result.total_cycles, stats.batched_cycles,
                         stats.batched_windows, stats.batch_fallback_reason)
    print(f"wall:     {elapsed:.2f} s")
    return 0


def _print_batched_split(total_cycles: int, batched_cycles: int,
                         batched_windows: int, fallback: str | None) -> None:
    """The ``batched:`` and ``fallback:`` lines of ``repro simulate``."""
    if batched_windows:
        print(f"batched:  {batched_cycles} cycles in {batched_windows} "
              f"windows ({batched_cycles / total_cycles:.1%} of the run), "
              f"{total_cycles - batched_cycles} scalar")
    if fallback:
        print(f"fallback: {fallback}")


def _cmd_devices(args) -> int:
    from repro.core.grid import Grid
    from repro.hardware import (
        ALVEO_U280,
        STRATIX10_GX2800,
        TESLA_V100,
        XEON_8260M,
    )
    from repro.kernel.config import KernelConfig

    config = KernelConfig(grid=Grid.from_cells(16 * 1024 * 1024))
    for device in (ALVEO_U280, STRATIX10_GX2800):
        kernels = device.max_kernels(config)
        print(f"{device.name}: {kernels} kernels fit, "
              f"{device.clock.frequency_mhz(kernels):.0f} MHz at that "
              f"count, memories: "
              + ", ".join(f"{name} ({m.spec.capacity_bytes / 2**30:.0f} GiB)"
                          for name, m in device.memories.items()))
    print(f"{XEON_8260M.name}: {XEON_8260M.cores} cores, "
          f"{XEON_8260M.gflops():.1f} GFLOPS on this kernel")
    print(f"{TESLA_V100.name}: {TESLA_V100.kernel_gflops:.1f} GFLOPS "
          f"kernel-only, "
          f"{TESLA_V100.memory_capacity_bytes / 2**30:.0f} GiB HBM2")
    return 0


def _cmd_scenarios(args) -> int:
    import json as json_module

    from repro.scenarios import (
        get,
        names,
        run_suite,
        unregistered_cli_kernels,
    )

    selected = tuple(args.names) if args.names else names()
    listing = [get(name) for name in selected]  # validates names

    payload: dict = {
        "scenarios": [scenario.to_dict() for scenario in listing],
    }
    ok = True

    if args.check_cli:
        uncovered = unregistered_cli_kernels()
        payload["unregistered_cli_kernels"] = list(uncovered)
        if uncovered:
            ok = False

    pricing = None
    if args.backend:
        from repro.backend import get_backend

        backend = get_backend(args.backend)
        pricing = []
        for scenario in listing:
            entry: dict = {"scenario": scenario.name,
                           "backend": backend.id,
                           "flops_scale": scenario.flops_scale}
            try:
                evaluation = backend.price_scenario(scenario)
            except BackendError as error:
                entry["feasible"] = False
                entry["error"] = str(error)
                ok = False
            else:
                entry["feasible"] = True
                entry["point"] = evaluation.point.key()
                entry["kernel_gflops"] = round(evaluation.kernel_gflops, 6)
                entry["watts"] = round(evaluation.watts, 6)
            pricing.append(entry)
        payload["backend_pricing"] = pricing

    report = None
    if args.conformance:
        report = run_suite(selected, seed=args.seed)
        payload["conformance"] = report.to_dict()
        if not report.ok:
            ok = False
    payload["ok"] = ok

    if args.json:
        print(json_module.dumps(payload, indent=2))
        return 0 if ok else 1

    header = (f"{'name':>20}  {'kind':<10} {'grid':<14} {'bc':<9} "
              f"{'batch':>5}  {'ops/cycle':>9}")
    print(header)
    print("-" * len(header))
    for scenario in listing:
        nx, ny, nz = scenario.grids.default
        print(f"{scenario.name:>20}  {scenario.kernel.kind:<10} "
              f"{f'{nx}x{ny}x{nz}':<14} {scenario.boundary:<9} "
              f"{scenario.batch:>5}  {scenario.ops_per_cycle:>9.3f}")
    if args.check_cli:
        uncovered = payload["unregistered_cli_kernels"]
        print()
        if uncovered:
            print("CLI kernels with no registered scenario: "
                  + ", ".join(uncovered))
        else:
            print("CLI kernel coverage: every reachable kernel is "
                  "registered")
    if pricing is not None:
        print()
        print(f"backend pricing ({args.backend}):")
        for entry in pricing:
            if entry["feasible"]:
                print(f"  {entry['scenario']:>20}  "
                      f"{entry['point']:<26} "
                      f"{entry['kernel_gflops']:9.2f} GFLOPS "
                      f"{entry['watts']:6.1f} W")
            else:
                print(f"  {entry['scenario']:>20}  INFEASIBLE "
                      f"({entry['error']})")
    if report is not None:
        print()
        print(report.render_text())
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    import json as json_module

    from repro.core.grid import Grid
    from repro.hardware import device_by_name
    from repro.lint import load_builtin_rules
    from repro.lint.runner import lint_kernel, run_lint
    from repro.lint.spec import load_spec

    registry = load_builtin_rules()
    if args.list_rules:
        for rule in registry:
            print(f"{rule.code}  {rule.default_severity.value:<7}  "
                  f"[{rule.family}] {rule.name}: {rule.description}")
        return 0

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    # Reject a filter that matches nothing before any target kind
    # (flags, --backend, --scenario, specs) is linted.
    registry.selected(select=select, ignore=ignore)

    if args.backend and (args.scenario or args.specs):
        raise ConfigurationError(
            "--backend lints the kernel built from the flags, not specs "
            "or scenarios")

    if args.scenario:
        import dataclasses

        from repro.scenarios import get as get_scenario

        scenario = get_scenario(args.scenario)
        reports = [dataclasses.replace(
            scenario.lint(), subject=f"scenario:{scenario.name}")]
    elif args.specs:
        specs = [load_spec(path) for path in args.specs]
        reports = [run_lint(spec.context, select=select, ignore=ignore,
                            subject=spec.name) for spec in specs]
    else:
        grid = _given_grid(args) or Grid.from_label(args.cells)
        if args.backend:
            from repro.backend import DEFAULT_BACKEND, get_backend

            backend = get_backend(args.backend)
        else:
            backend = None
        if backend is not None and backend.id != DEFAULT_BACKEND:
            # Non-default families lint their canonical deployment
            # (--kernels maps to the backend's replica axis, e.g.
            # Versal tile columns); --chunk-width has no analogue.
            reports = [backend.lint(
                grid, device=args.device, num_kernels=args.kernels,
                select=select, ignore=ignore)]
        else:
            device_name = args.device or "u280"
            device = device_by_name(device_name)
            if not hasattr(device, "capacity"):
                raise ConfigurationError(
                    f"{device.name} is not an FPGA model; lint needs a "
                    "fabric capacity")
            config = _kernel_config(grid, args.chunk_width)
            reports = [lint_kernel(config, device, args.kernels,
                                   select=select, ignore=ignore,
                                   subject=f"{device_name}:{args.cells}")]

    if args.json:
        payload = {
            "ok": all(r.exit_code(strict=args.strict) == 0 for r in reports),
            "reports": [r.to_dict() for r in reports],
        }
        print(json_module.dumps(payload, indent=2))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            print(report.render_text())
    return max(r.exit_code(strict=args.strict) for r in reports)


def _cmd_analyze(args) -> int:
    import json as json_module
    import pathlib
    from typing import Any

    from repro.analyze import analyze_graph, build_token_twin, \
        patch_spec_depths
    from repro.core.grid import Grid
    from repro.dataflow.engine import DataflowEngine
    from repro.kernel.builder import build_structural_graph
    from repro.lint.spec import load_spec

    if args.tokens is not None and args.tokens < 1:
        # analyze_graph accepts 0 tokens, but a proof over an empty run
        # proves nothing about the design.
        raise ConfigurationError(f"--tokens must be >= 1, got {args.tokens}")
    if args.fix_depths and len(args.specs) != 1:
        raise ConfigurationError("--fix-depths needs exactly one spec")
    if args.backend and (args.scenario or args.specs):
        raise ConfigurationError(
            "--backend analyzes the graph built from the flags, not specs "
            "or scenarios")

    targets: list[tuple[str, Any]] = []  # (name, graph)
    raw_spec: dict | None = None
    if args.scenario:
        from repro.scenarios import get as get_scenario

        scenario = get_scenario(args.scenario)
        targets.append((
            f"scenario:{scenario.name}",
            scenario.kernel.structural_graph(scenario.default_grid())))
    elif args.specs:
        for path in args.specs:
            target = load_spec(path)
            if target.context.graph is None:
                raise LintError(f"{path} declares no dataflow graph")
            targets.append((target.name, target.context.graph))
        if args.fix_depths:
            raw_spec = json_module.loads(
                pathlib.Path(args.specs[0]).read_text())
    else:
        grid = _given_grid(args) or Grid.from_label(args.cells)
        if args.backend:
            from repro.backend import get_backend

            backend = get_backend(args.backend)
            targets.append((
                f"backend:{backend.id}",
                backend.structural_graph(grid, read_ii=args.read_ii)))
        else:
            config = _kernel_config(grid, args.chunk_width)
            targets.append((
                "advection",
                build_structural_graph(config, read_ii=args.read_ii)))

    records = []
    failed = False
    for name, graph in targets:
        report = analyze_graph(graph, tokens=args.tokens)
        record: dict[str, Any] = report.to_dict()
        if args.check:
            twin = build_token_twin(graph, report.tokens)
            stats = DataflowEngine(twin).run()
            record["engine_cycles"] = stats.cycles
            record["check"] = stats.cycles == report.schedule.total_cycles
            if not record["check"]:
                failed = True
        if not report.ok:
            failed = True
        elif args.strict and not report.occupancy.stall_free:
            failed = True
        records.append((name, report, record))

    if args.fix_depths and raw_spec is not None:
        _, report, _ = records[0]
        patched = patch_spec_depths(
            raw_spec, report.occupancy.minimal_depths())
        pathlib.Path(args.fix_depths).write_text(
            json_module.dumps(patched, indent=2) + "\n")
        print(f"wrote patched spec with minimal safe depths: "
              f"{args.fix_depths}", file=sys.stderr)

    if args.json:
        payload = {
            "ok": not failed,
            "reports": [record for _, _, record in records],
        }
        print(json_module.dumps(payload, indent=2))
    else:
        for i, (name, report, record) in enumerate(records):
            if i:
                print()
            print(report.render_text())
            if args.check:
                verdict = "MATCH" if record["check"] else "MISMATCH"
                print(f"  engine cross-check: {record['engine_cycles']} "
                      f"cycle(s) [{verdict}]")
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    import json as json_module

    from repro.faults.chaos import SMOKE_FAMILIES, run_chaos

    families = None
    if args.families:
        families = tuple(name.strip() for name in args.families.split(",")
                         if name.strip())
    seeds = args.seeds
    if args.smoke:
        families = families or SMOKE_FAMILIES
        seeds = min(seeds, 2)
    report = run_chaos(families=families, seeds=seeds,
                       seed_base=args.seed_base,
                       nx=args.nx, ny=args.ny, nz=args.nz)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    from repro.core.grid import Grid
    from repro.core.wind import random_wind
    from repro.hardware import device_by_name
    from repro.kernel.simulate import simulate_kernel
    from repro.observe import Tracer, write_trace
    from repro.runtime.session import AdvectionSession

    grid = Grid(nx=args.nx, ny=args.ny, nz=args.nz)
    fields = random_wind(grid, seed=args.seed, magnitude=2.0)
    config = _kernel_config(grid, args.chunk_width)
    device = device_by_name(args.device)

    tracer = Tracer()
    result = simulate_kernel(config, fields, mode=args.mode, tracer=tracer)

    session = AdvectionSession(device, config)
    run = session.run(grid, overlapped=not args.no_overlap)
    clock_mhz = device.clock.frequency_mhz(run.num_kernels)

    path = write_trace(
        args.out, tracer, run.schedule,
        process_name=f"{args.device}-{grid.nx}x{grid.ny}x{grid.nz}",
        cycle_time_us=1.0 / clock_mhz)
    schedule_events = len(run.schedule.timeline) if run.schedule else 0
    print(f"grid:     {grid.interior_shape}, mode={args.mode}, "
          f"device={args.device}")
    print(f"engine:   {result.total_cycles} cycles, "
          f"{len(tracer.spans)} spans on {len(tracer.tracks())} tracks")
    print(f"schedule: {schedule_events} transfer/compute events "
          f"at {clock_mhz:.0f} MHz")
    print(f"wrote chrome://tracing / Perfetto file: {path}")
    return 0


def _cmd_metrics(args) -> int:
    import json as json_module

    from repro.core.grid import Grid
    from repro.core.wind import random_wind
    from repro.kernel.simulate import simulate_kernel
    from repro.observe import MetricRegistry, ops_per_cycle_report
    from repro.observe.opscycle import check_clock_mhz

    if args.clock_mhz is not None:
        check_clock_mhz(args.clock_mhz)
    grid = Grid(nx=args.nx, ny=args.ny, nz=args.nz)
    fields = random_wind(grid, seed=args.seed, magnitude=2.0)
    config = _kernel_config(grid, args.chunk_width)

    registry = MetricRegistry()
    result = simulate_kernel(config, fields, mode=args.mode,
                             metrics=registry)
    report = ops_per_cycle_report(result.aggregate_stats(), nz=grid.nz,
                                  cycles=result.total_cycles)

    if args.json:
        payload = {
            "grid": list(grid.interior_shape),
            "mode": args.mode,
            "ops_per_cycle": report.to_dict(),
            "metrics": registry.snapshot(),
        }
        if args.clock_mhz is not None:
            payload["achieved_gflops"] = round(
                report.achieved_gflops(args.clock_mhz), 3)
        print(json_module.dumps(payload, indent=2))
    else:
        print(f"grid:     {grid.interior_shape}, mode={args.mode}")
        print(report.summary())
        if args.clock_mhz is not None:
            print(f"at {args.clock_mhz:.0f} MHz: "
                  f"{report.achieved_gflops(args.clock_mhz):.2f} GFLOPS")
        print()
        print(registry.render_text())
    return 0


def _cmd_tune(args) -> int:
    import json as json_module

    from repro.core.grid import Grid
    from repro.observe import MetricRegistry, Tracer, write_trace
    from repro.tune import render_text, tune

    flops_scale = 1.0
    if args.scenario:
        from repro.scenarios import get as get_scenario

        scenario = get_scenario(args.scenario)
        grid = scenario.default_grid()
        flops_scale = scenario.flops_scale
        print(f"scenario {scenario.name}: grid {grid.interior_shape}, "
              f"flops scale {flops_scale:g}", file=sys.stderr)
    elif args.cells is not None:
        grid = Grid.from_label(args.cells)
    else:
        grid = Grid(nx=args.nx, ny=args.ny, nz=args.nz)

    tracer = Tracer(enabled=args.trace is not None)
    metrics = MetricRegistry(enabled=args.trace is not None)
    report = tune(
        args.device, grid, backend=args.backend,
        strategy=args.strategy, objective=args.objective,
        budget=args.budget, seed=args.seed,
        wide_precision=args.wide_precision, flops_scale=flops_scale,
        cache_path=args.cache, measure_top_k=args.measure,
        tracer=tracer, metrics=metrics,
    )

    # A tuned Versal deployment lands on one front with the paper's
    # four measured platforms (U280, Stratix 10, Xeon 8260M, V100).
    cross = None
    if report.backend == "versal_aie":
        from repro.backend.compare import cross_architecture_front

        cross = cross_architecture_front(report.best, grid,
                                         flops_scale=flops_scale)

    if args.trace:
        path = write_trace(args.trace, tracer,
                           process_name=f"tune-{args.device or report.device}")
        print(f"wrote Perfetto search trace: {path}", file=sys.stderr)
    if args.pareto:
        if cross is None:
            pareto_payload = [e.to_dict() for e in report.front]
        else:
            pareto_payload = {
                "front": [e.to_dict() for e in report.front],
                "cross_architecture": [p.to_dict() for p in cross],
            }
        with open(args.pareto, "w") as handle:
            handle.write(json_module.dumps(
                pareto_payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote Pareto front: {args.pareto}", file=sys.stderr)

    if args.json:
        if cross is None:
            sys.stdout.write(report.to_json())
        else:
            payload = report.to_dict()
            payload["cross_architecture"] = [p.to_dict() for p in cross]
            sys.stdout.write(json_module.dumps(
                payload, indent=2, sort_keys=True) + "\n")
    else:
        print(render_text(report), end="")
        if cross is not None:
            print()
            print("cross-architecture front (kernel GFLOPS vs watts):")
            header = (f"  {'architecture':>12}  {'backend':<16} "
                      f"{'GFLOPS':>9} {'watts':>7} {'GF/W':>7}  front")
            print(header)
            print("  " + "-" * (len(header) - 2))
            for entry in cross:
                print(f"  {entry.architecture:>12}  {entry.backend:<16} "
                      f"{entry.kernel_gflops:9.2f} {entry.watts:7.1f} "
                      f"{entry.gflops_per_watt:7.3f}  "
                      f"{'*' if entry.on_front else '-'}")

    if report.best is None:
        print("error: no feasible deployment in the space",
              file=sys.stderr)
        return 1
    if (args.expect_kernels is not None
            and report.best.point.num_kernels != args.expect_kernels):
        print(f"error: expected the best deployment to use "
              f"{args.expect_kernels} kernels, tuner chose "
              f"{report.best.point.num_kernels} "
              f"({report.best.point.key()})", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import json as json_module

    from repro.serve import (DEFAULT_FLEET_SPEC, Fleet, FleetScheduler,
                             PoissonLoad, run_load)

    fleet_spec = args.fleet or DEFAULT_FLEET_SPEC
    load = PoissonLoad(
        jobs=args.jobs, rate_hz=args.rate, seed=args.seed,
        nx=args.nx, ny=args.ny, nz=args.nz,
        exact_fraction=args.exact_fraction,
        deadline_seconds=(None if args.deadline_ms is None
                          else args.deadline_ms * 1e-3),
        scenario=args.scenario,
    )

    # The fault plane and the observers load only under their flags.
    fault_plan = None
    if args.chaos:
        from repro.faults.plan import FaultPlan, FaultSpec

        lanes = Fleet.from_spec(fleet_spec).lanes
        first = lanes[0].name
        fault_plan = FaultPlan([
            FaultSpec("device", "loss", match=first, probability=0.5,
                      count=1),
            FaultSpec("device", "blip", match="*", probability=0.1,
                      count=1, seconds=0.01),
            FaultSpec("transfer", "fail", match="*h2d*", probability=0.05,
                      count=4),
        ], seed=args.chaos_seed)

    tracer = metrics = None
    if args.trace:
        from repro.observe.trace import Tracer

        tracer = Tracer()
    if args.metrics:
        from repro.observe.metrics import MetricRegistry

        metrics = MetricRegistry()
    scheduler = FleetScheduler(Fleet.from_spec(fleet_spec),
                               fault_plan=fault_plan, tracer=tracer,
                               metrics=metrics)
    report = run_load(scheduler, load)

    # Tri-state: None = no chaos leg ran, so there is nothing to attest.
    invariant_ok: bool | None = True if args.chaos else None
    if args.chaos:
        golden = run_load(FleetScheduler(Fleet.from_spec(fleet_spec)), load)
        golden_sums = {outcome.spec.job_id: outcome.result.checksum
                       for outcome in golden.completed
                       if outcome.result is not None}
        for outcome in report.completed:
            assert outcome.result is not None
            expected = golden_sums.get(outcome.spec.job_id)
            if expected is not None and outcome.result.checksum != expected:
                invariant_ok = False
                print(f"INVARIANT VIOLATION: job {outcome.spec.job_id} "
                      "diverged from the fault-free fleet run",
                      file=sys.stderr)

    if args.json:
        payload = report.to_dict()
        payload["invariant_ok"] = invariant_ok
        print(json_module.dumps(payload, indent=2))
    else:
        print(report.render_text())
        if args.chaos:
            verdict = "holds" if invariant_ok else "VIOLATED"
            print(f"bit-identity-or-typed-error invariant: {verdict}")
    if metrics is not None:
        print()
        print(metrics.render_text())
    if tracer is not None:
        from repro.observe.export import write_trace

        path = write_trace(args.trace, serve_tracer=tracer,
                           process_name="serve")
        print(f"fleet trace written to {path}")
    return 0 if invariant_ok is not False else 1


def _cmd_scorecard(args) -> int:
    from repro.experiments.summary import build_scorecard, write_summary

    card = build_scorecard(tolerance_pct=args.tolerance)
    print(card.summary_line())
    if args.json:
        path = write_summary(args.json)
        print(f"full summary written to {path}")
    return 0 if card.match_fraction == 1.0 else 1


def _cmd_report(args) -> int:
    from repro.experiments.markdown_report import main as report_main

    return report_main([args.path] if args.path else [])


_COMMANDS = {
    "experiments": _cmd_experiments,
    "run": _cmd_run,
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "devices": _cmd_devices,
    "scenarios": _cmd_scenarios,
    "scorecard": _cmd_scorecard,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "tune": _cmd_tune,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; a :class:`~repro.errors.ReproError` prints one
    ``error:`` line and returns its class's ``exit_code``."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
