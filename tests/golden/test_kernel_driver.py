"""Golden digests of the cycle-accurate kernel driver.

Pins what a kernel run observably produces on a fixed set of drawn
configurations: the source bytes, the total and per-chunk cycles, the
aggregate engine statistics, the chunk retries, and either the shift
buffer's port reports (a plain one-replica run) or the shared memory's
grants and denials and the quarantine record (a run whose replicas
share one memory).  The configurations come from seeded draws over
grids, chunk widths, read intervals, batching, fault plans, kernel
counts and memory rates, so the digests cover every mode of the driver
without Hypothesis at test time.
"""

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel

from .conftest import as_json
from .test_golden import normalise_wall

#: Fault plans by label; the stream and stage globs match both the
#: unprefixed names of a plain run and the ``k{p}.`` names of a shared one.
FAULTS = {
    "none": [],
    "fifo-corrupt": [FaultSpec("fifo", "corrupt", match="*",
                               probability=0.02, count=1)],
    "fifo-drop": [FaultSpec("fifo", "drop", match="*",
                            probability=0.02, count=1)],
    "stage-freeze": [FaultSpec("stage", "freeze", match="*advect_v",
                               cycles=7, at_cycle=20, count=1)],
    "replica-kill": [FaultSpec("replica", "kill", match="k1:*",
                               probability=0.5, count=1)],
    "replica-slow": [FaultSpec("replica", "slow", match="k0:*", count=2,
                               factor=3.0)],
    # The killed replica's rescheduled run takes a transient corrupt:
    # its retry must restore only that replica's columns.
    "kill-then-corrupt": [
        FaultSpec("replica", "kill", match="k1:chunk0", count=1),
        FaultSpec("fifo", "corrupt", match="k1.*", probability=0.05,
                  count=1),
    ],
}


def _cases() -> list[dict]:
    rng = np.random.default_rng(31)
    cases = []
    plain_faults = ("none", "fifo-corrupt", "fifo-drop", "stage-freeze")
    for i in range(12):
        ny = int(rng.integers(4, 15))
        cases.append(dict(
            grid=(int(rng.integers(4, 11)), ny, int(rng.integers(3, 9))),
            chunk_width=int(rng.integers(2, ny + 1)),
            read_ii=int(rng.integers(1, 4)), batched=i % 3 != 2,
            kernels=1, rate=None, faults=plain_faults[i % 4]))
    shared_faults = ("none", "replica-kill", "replica-slow", "fifo-corrupt",
                     "stage-freeze", "kill-then-corrupt")
    rates = (None, 3.0, 1.5, 1.0, 0.1)
    for i in range(12):
        ny = int(rng.integers(4, 15))
        cases.append(dict(
            grid=(int(rng.integers(4, 11)), ny, int(rng.integers(3, 9))),
            chunk_width=int(rng.integers(2, ny + 1)), read_ii=1,
            batched=i % 4 != 3, kernels=int(rng.integers(2, 5)),
            rate=rates[i % 5], faults=shared_faults[i % 6]))
    return cases


CASES = _cases()


def label(index: int, case: dict) -> str:
    nx, ny, nz = case["grid"]
    return (f"{index:02d} {nx}x{ny}x{nz} cw={case['chunk_width']} "
            f"ii={case['read_ii']} "
            f"{'batched' if case['batched'] else 'scalar'} "
            f"kernels={case['kernels']} rate={case['rate']} "
            f"faults={case['faults']}")


def source_digest(sources) -> str:
    digest = hashlib.sha256()
    for array in sources.as_tuple():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_case(index: int, case: dict) -> dict:
    grid = Grid(*case["grid"])
    fields = random_wind(grid, seed=index, magnitude=2.0)
    config = KernelConfig(grid=grid, chunk_width=case["chunk_width"])
    plan = (FaultPlan(FAULTS[case["faults"]], seed=index)
            if case["faults"] != "none" else None)
    shared = case["kernels"] > 1 or case["rate"] is not None
    try:
        result = simulate_kernel(
            config, fields, num_kernels=case["kernels"],
            memory_cells_per_cycle=case["rate"], read_ii=case["read_ii"],
            batched=case["batched"], fault_plan=plan)
    except ReproError as error:
        return {"error": type(error).__name__}
    record = {
        "sources": source_digest(result.sources),
        "total_cycles": result.total_cycles,
        "chunk_cycles": result.chunk_cycles,
        "aggregate": result.aggregate_stats().to_dict(),
        "chunk_retries": result.chunk_retries,
    }
    if shared:
        record.update(grants=result.arbiter.grants,
                      denials=result.arbiter.denials,
                      quarantined=result.quarantined,
                      rescheduled_chunks=result.rescheduled_chunks)
    else:
        record["ports"] = {
            name: [report.cycles, report.total_accesses,
                   report.max_accesses_per_cycle]
            for name, report in result.port_tracker.reports().items()}
    return record


def test_kernel_driver_digests(golden):
    digests = {label(i, case): run_case(i, case)
               for i, case in enumerate(CASES)}
    golden("kernel_driver_digests.json", as_json(digests))


@pytest.mark.parametrize("fixture, extra", [
    ("cli_simulate_kernels2.txt", []),
    ("cli_simulate_kernels2_rate.txt", ["--memory-rate", "1.5"]),
])
def test_simulate_kernels_text(golden, capsys, fixture, extra):
    assert main(["simulate", "--nx", "8", "--ny", "8", "--nz", "8",
                 "--kernels", "2", *extra]) == 0
    golden(fixture, normalise_wall(capsys.readouterr().out))
