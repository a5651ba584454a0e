"""Golden digests of the cycle-accurate stencil kernel driver.

Pins what :func:`~repro.kernel.generic.run_stencil_kernel` observably
produces on a fixed set of drawn configurations: the output bytes, the
engine statistics, the shift buffer's port reports and the fault trace,
or the error class and message of a run that raises.  The
configurations come from seeded draws over block shapes (``nz = 3``,
whose windows burst three results, among them), the diffusion and
buoyancy window functions, stream depths, batching, a
:class:`~repro.dataflow.engine.ControlRecord` shared by two passes and
fault plans, so the digests cover every mode of the driver without
Hypothesis at test time.
"""

import hashlib

import numpy as np

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import ControlRecord
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.generic import run_stencil_kernel
from repro.scenarios.kernels import BuoyancyKernel, DiffusionKernel
from repro.shiftbuffer.ports import MemoryPortTracker

from .conftest import as_json

KERNELS = {"diffusion": DiffusionKernel(nu=1.5), "buoyancy": BuoyancyKernel()}

#: Fault plans by label.
FAULTS = {
    "none": [],
    "fifo-drop": [FaultSpec("fifo", "drop", match="*", probability=0.02,
                            count=1)],
    "fifo-corrupt": [FaultSpec("fifo", "corrupt", match="*",
                               probability=0.02, count=1)],
    "shift-freeze": [FaultSpec("stage", "freeze", match="shift", cycles=7,
                               at_cycle=20, count=1)],
}


def _cases() -> list[dict]:
    rng = np.random.default_rng(34)
    faults = tuple(FAULTS)
    cases = []
    for i in range(24):
        block = [int(v) for v in rng.integers(3, 10, size=3)]
        if i % 6 == 0:
            block[2] = 3
        cases.append(dict(
            block=tuple(block),
            kernel=("diffusion", "buoyancy")[int(rng.integers(2))],
            depth=(4, 6)[int(rng.integers(2))],
            batched=bool(rng.random() < 0.7),
            shared_record=bool(rng.integers(2)),
            faults=faults[i % 4]))
    return cases


CASES = _cases()


def label(index: int, case: dict) -> str:
    bx, by, bz = case["block"]
    return (f"{index:02d} {bx}x{by}x{bz} {case['kernel']} "
            f"depth={case['depth']} "
            f"{'batched' if case['batched'] else 'scalar'} "
            f"record={'shared' if case['shared_record'] else 'none'} "
            f"faults={case['faults']}")


def run_case(index: int, case: dict) -> list[dict]:
    """One pass, or two sharing one control record, each recorded."""
    bx, by, bz = case["block"]
    grid = Grid(nx=bx - 2, ny=by - 2, nz=bz)
    fields = random_wind(grid, seed=index, magnitude=2.0)
    interior, boundary = KERNELS[case["kernel"]].window_fns(grid)
    plan = (FaultPlan(FAULTS[case["faults"]], seed=index)
            if case["faults"] != "none" else None)
    record = ControlRecord() if case["shared_record"] else None
    passes = []
    for block in ((fields.u, fields.v) if record is not None
                  else (fields.u,)):
        out = np.zeros(grid.interior_shape)
        tracker = MemoryPortTracker()
        try:
            stats = run_stencil_kernel(
                block, interior, boundary, out, stream_depth=case["depth"],
                tracker=tracker, batched=case["batched"], fault_plan=plan,
                record=record)
        except ReproError as error:
            passes.append({"error": type(error).__name__,
                           "message": str(error)})
            continue
        passes.append({
            "out": hashlib.sha256(out.tobytes()).hexdigest(),
            "stats": stats.to_dict(),
            "ports": {
                name: [report.cycles, report.total_accesses,
                       report.max_accesses_per_cycle]
                for name, report in tracker.reports().items()},
            "trace": plan.trace_key() if plan is not None else [],
        })
    return passes


def test_stencil_driver_digests(golden):
    digests = {label(i, case): run_case(i, case)
               for i, case in enumerate(CASES)}
    golden("stencil_driver_digests.json", as_json(digests))
