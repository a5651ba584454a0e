#!/usr/bin/env python3
"""Host wall-clock benchmark of the repro simulator.

Run from the repository root::

    python3 benchmarks/wallclock/run.py [--workload NAME ...] [--seed N]
        [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]
    python3 benchmarks/wallclock/run.py compare A.json B.json

Each workload runs as a fixed number R of fresh child processes, one
after another, each pinned to one BLAS/OpenMP thread.  A child imports
``repro`` from ``src/``, builds its inputs from the seed, makes one
warm-up call on a tiny input, makes exactly one timed call on the real
input, and then checks the output, untimed.  A speed probe
(``hostspeed.py``) samples the host while the child sets up and makes
its timed call, and the reported times are corrected to the probe's
nominal host speed.  Each metric is the median over the R children,
reported with its quartiles and sample count.

``--trace 1`` adds one traced child per workload and reports the
per-layer metrics instead; the Chrome-trace JSON goes to ``--trace-dir``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when every check passed, 1 when any failed, 2 when the benchmark could
not run (no ``src/repro``, a child crashed or timed out).
"""

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from hostspeed import SpeedProbe
from tracing import TARGETS, Recorder, layer_metrics
from workloads import WORKLOADS

#: a child's set-up time counts from here: interpreter start and the
#: imports above (none of them loads ``repro``) are ahead of it.
_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: a child that takes longer has hung; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150
#: with default threading, run-to-run medians moved by up to 20%.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- child ----------------------------------------------------------------------

def run_child(name: str, seed: int, smoke: bool,
              trace_path: Path | None = None) -> dict[str, Any]:
    """Set up, warm up, time one call, check it; return the measurements.

    Times are corrected for the host's speed by a :class:`SpeedProbe`
    that samples from set-up to the end of the timed call; the ``raw_``
    values are as the clocks read them.
    """
    probe = SpeedProbe()
    probe.start()
    try:
        workload = WORKLOADS[name](seed, smoke)
        workload.warm_up()
        raw_setup_s = time.perf_counter() - _T0
        setup_s = probe.corrected(raw_setup_s, (0, 0.0))

        recorder = Recorder() if trace_path is not None else None
        if recorder is not None:
            recorder.install(TARGETS)
        since = probe.mark()
        with recorder.root() if recorder else contextlib.nullcontext():
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            output = workload.call()
            raw_wall_s = time.perf_counter() - wall_start
            raw_cpu_s = time.process_time() - cpu_start
    finally:
        probe.stop()
    wall_s = probe.corrected(raw_wall_s, since)
    cpu_s = probe.corrected(raw_cpu_s, since)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.uninstall()

    checks = workload.checks(output)
    result: dict[str, Any] = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "raw_setup_s": raw_setup_s, "raw_wall_s": raw_wall_s,
        "raw_cpu_s": raw_cpu_s,
        "peak_rss_mb": peak_rss_mb, "work": workload.work(output),
        "attempted": len(checks),
        "failures": [description for description, ok in checks if not ok],
        "digest": workload.digest(output),
    }
    if recorder is not None:
        layers = layer_metrics(recorder)
        recorder.write_chrome_trace(trace_path, {
            "workload": name, "seed": seed, "wall_s": raw_wall_s,
            "corrected_wall_s": wall_s, "layers": layers,
            "missing": recorder.missing,
        })
        result["layers"] = layers
        result["missing"] = recorder.missing
    return result


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    print(json.dumps(run_child(args.workload, args.seed, args.smoke,
                               args.trace_file)))
    return 0


# -- parent ---------------------------------------------------------------------

def spawn_child(name: str, seed: int, smoke: bool,
                trace_path: Path | None = None) -> dict[str, Any]:
    """Run one child process to completion and return its measurements."""
    cmd = [sys.executable, str(HERE / "run.py"), "child", name,
           "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_path is not None:
        cmd += ["--trace-file", str(trace_path)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{name}: child exceeded {CHILD_TIMEOUT_S} s") \
            from error
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{name}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def describe(samples: list[float]) -> dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def measure(name: str, seed: int, smoke: bool,
            trace_dir: Path | None) -> dict[str, Any]:
    """All children of one workload, folded into its result entry."""
    count = 1 if smoke else WORKLOADS[name].children
    children = [spawn_child(name, seed, smoke) for _ in range(count)]
    traced = None
    if trace_dir is not None:
        traced = spawn_child(name, seed, smoke,
                             trace_dir / f"trace-{name}.json")

    everyone = children + ([traced] if traced else [])
    attempted = sum(child["attempted"] for child in everyone)
    failures = [failure for child in everyone for failure in child["failures"]]
    digests = [child["digest"] for child in everyone
               if child["digest"] is not None]
    if digests:
        attempted += len(digests) - 1
        failures += [f"child {index}: output digest differs from child 0"
                     for index, digest in enumerate(digests)
                     if digest != digests[0]]

    metrics = {key: describe([child[key] for child in children])
               for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    metrics["throughput"] = describe([child["work"] / child["wall_s"]
                                      for child in children])
    metrics["failed_frac"] = describe([len(failures) / attempted])
    entry: dict[str, Any] = {
        "children": len(children), "attempted": attempted,
        "failed": len(failures), "failures": failures,
        "work": children[0]["work"], "metrics": metrics,
        "raw": {key: describe([child[f"raw_{key}"] for child in children])
                for key in ("setup_s", "wall_s", "cpu_s")},
    }
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            traced["wall_s"] / metrics["wall_s"]["median"] - 1)
        entry["layers"] = layers
        entry["missing"] = traced["missing"]
        entry["trace_file"] = str(trace_dir / f"trace-{name}.json")
    return entry


def report(name: str, entry: dict[str, Any], spec: dict[str, Any],
           trace: bool) -> None:
    print(f"== {name}: {entry['children']} children, {entry['attempted']} "
          f"checks, {entry['failed']} failed")
    for failure in entry["failures"]:
        print(f"   FAILED {failure}")
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    units["failed_frac"] = "ratio"
    for metric, unit in units.items():
        stats = entry["metrics"][metric]
        print(f"   {metric:<14} {stats['median']:<14.6g} {unit:<6} "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}")
    print(f"   (throughput counts {WORKLOADS[name].work_unit}: "
          f"{entry['work']} per timed call)")
    raw = entry["raw"]
    print(f"   times above are at the probe's nominal host speed; as the "
          f"clocks read: setup_s {raw['setup_s']['median']:.4g}, wall_s "
          f"{raw['wall_s']['median']:.4g}, cpu_s {raw['cpu_s']['median']:.4g}")
    if WORKLOADS[name].note:
        print(f"   {WORKLOADS[name].note}")
    if trace:
        print(f"   layers of one traced child ({entry['trace_file']}):")
        for path in entry["missing"]:
            print(f"   MISSING traced target {path}: its metrics read 0")
        for metric in spec["per_layer"]:
            print(f"   {metric['name']:<30} "
                  f"{entry['layers'][metric['name']]:<14.6g} {metric['unit']}")


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["child"]:
        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])

    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    # The benchmark format passes its run_seconds on every call.  The run
    # length is R children, fixed per workload, so that the sample count
    # does not depend on host speed; only the declared value is accepted.
    parser.add_argument("--seconds", type=int, choices=[spec["run_seconds"]],
                        default=spec["run_seconds"],
                        help="BENCHMARK.json's run_seconds (no other value)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced child, report per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=HERE / "results",
                        help="where --trace 1 writes trace-<workload>.json")
    parser.add_argument("--out", type=Path,
                        help="write every median/quartile here (for compare)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one child per workload")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    # On SIGTERM, subprocess.run kills and reaps the running child as the
    # exception passes through it.
    previous = signal.signal(signal.SIGTERM, _terminate)
    results: dict[str, Any] = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.smoke,
                                    args.trace_dir if args.trace else None)
            report(name, results[name], spec, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)

    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "smoke": args.smoke,
            "workloads": results}, indent=2) + "\n")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, entry in results.items():
        for metric in declared:
            value = (entry["layers"][metric["name"]] if args.trace
                     else entry["metrics"][metric["name"]]["median"])
            key = metric["name"] if len(results) == 1 \
                else f"{name}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    failed = sum(entry["failed"] for entry in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(entry["attempted"] for entry in results.values()),
        "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


# -- compare --------------------------------------------------------------------

def verdict(a: dict[str, Any], b: dict[str, Any], bound: float,
            better: str) -> str:
    """``agree``/``worse``/``better`` of B against A, or ``unresolved``.

    A zero bound is absolute (``failed_frac``): any change counts.
    Otherwise a median moving by more than ``bound`` of A's median is a
    change, unless either side's quartile spread already exceeds it.
    """
    sign = 1 if better == "lower" else -1
    if bound == 0:
        change = sign * (b["median"] - a["median"])
    else:
        for side in (a, b):
            if (side["q3"] - side["q1"]) / side["median"] > bound:
                return "unresolved"
        change = sign * (b["median"] - a["median"]) / a["median"]
    if change > bound:
        return "worse"
    return "better" if change < -bound else "agree"


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path, help="baseline results (--out)")
    parser.add_argument("b", type=Path, help="results to judge against it")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())["workloads"]
    b = json.loads(args.b.read_text())["workloads"]
    declared = load_spec()["end_to_end"] + [
        {"name": "failed_frac", "better": "lower", "bound": 0}]

    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'bound':<6} verdict")
    worse = False
    for name in [name for name in a if name in b]:
        for metric in declared:
            sa = a[name]["metrics"][metric["name"]]
            sb = b[name]["metrics"][metric["name"]]
            result = verdict(sa, sb, metric["bound"], metric["better"])
            worse |= result == "worse"
            print(f"{name:<16} {metric['name']:<12} "
                  f"{_quartiles(sa):<32} {_quartiles(sb):<32} "
                  f"{metric['bound']:<6g} {result}")
    return 1 if worse else 0


def _quartiles(stats: dict[str, Any]) -> str:
    return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
