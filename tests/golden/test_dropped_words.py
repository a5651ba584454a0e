"""Golden digests of runs whose read-to-shift stream lost a word.

A word dropped between the read stage and the shift stage shifts every
later cell of the stream one position off the block, so the shift
stage's windows from then on hold the values it was fed, not the
block's.  This pins what such a run observably ends in, on both
machines: the error text, the sha256 of the output bytes and the fault
trace (:meth:`~repro.faults.FaultPlan.trace_key`).  The cases are
seeded draws over grids, periodic or open (zero) halos, data seeds and
drop probabilities, with one count-capped drop armed on the stream, so
the digests cover a drop at the first cell, mid-stream and none at all
without Hypothesis at test time.  Batched and forced-scalar runs must
both give the fixture's digests.
"""

import hashlib

import numpy as np
import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.dataflow.engine import DataflowEngine
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.generic import build_stencil_graph
from repro.scenarios.kernels import DiffusionKernel

from .conftest import as_json

#: Drop probabilities per opportunity, cycled over the cases.
PROBABILITIES = (1.0, 0.3, 0.02, 0.005)

#: The read-to-shift stream of each machine.
STREAMS = {"advection": "read_data.out->shift_buffer.in",
           "stencil": "read.out->shift.in"}


def _cases() -> list[dict]:
    rng = np.random.default_rng(44)
    cases = []
    for machine in STREAMS:
        for i in range(24):
            cases.append(dict(
                machine=machine,
                grid=(int(rng.integers(1, 7)), int(rng.integers(1, 8)),
                      int(rng.integers(3, 7))),
                periodic=bool((i // 4) % 2),
                seed=int(rng.integers(0, 2**16)),
                probability=PROBABILITIES[i % 4]))
    return cases


CASES = _cases()


def label(case: dict) -> str:
    nx, ny, nz = case["grid"]
    return (f"{case['machine']} {nx}x{ny}x{nz} "
            f"{'periodic' if case['periodic'] else 'open'} "
            f"seed={case['seed']} p={case['probability']}")


def _graph(case: dict):
    """The machine's graph over the case's data, and its output arrays."""
    grid = Grid(*case["grid"])
    rng = np.random.default_rng(case["seed"])
    shape = grid.interior_shape
    if case["machine"] == "advection":
        fields = FieldSet.from_interior(
            grid, rng.normal(size=shape), rng.normal(size=shape),
            rng.normal(size=shape), periodic=case["periodic"])
        config = KernelConfig(grid=grid)
        out = SourceSet.zeros(grid)
        graph = build_advection_graph(
            config, fields, config.chunk_plan().chunks[0],
            AdvectionCoefficients.uniform(grid), out)
        return graph, out.as_tuple()
    block = np.zeros(grid.halo_shape)
    grid.interior(block)[...] = rng.normal(size=shape)
    if case["periodic"]:
        grid.fill_periodic_halo(block)
    interior, boundary = DiffusionKernel().window_fns(grid)
    out = np.zeros(shape)
    return build_stencil_graph(block, interior, boundary, out), (out,)


def run_case(case: dict, *, batched: bool) -> dict:
    """One engine run with the case's drop armed: what it ended in."""
    plan = FaultPlan([FaultSpec(site="fifo", kind="drop",
                                match=STREAMS[case["machine"]],
                                probability=case["probability"], count=1)],
                     seed=case["seed"])
    graph, outs = _graph(case)
    try:
        DataflowEngine(graph, batched=batched, fault_plan=plan).run()
        error = None
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256()
    for out in outs:
        digest.update(out.tobytes())
    return {"error": error, "out": digest.hexdigest(),
            "trace": plan.trace_key()}


@pytest.mark.parametrize("batched", [True, False],
                         ids=["batched", "forced-scalar"])
def test_dropped_word_digests(golden, batched):
    digests = {label(case): run_case(case, batched=batched)
               for case in CASES}
    golden("dropped_word_digests.json", as_json(digests))
