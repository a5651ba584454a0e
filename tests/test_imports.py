"""Import hygiene: every subpackage must import standalone, in any order.

A circular import can hide behind a lucky import order in the test suite
(it did once, between ``repro.hardware`` and ``repro.kernel``); these
tests import each entry point in a fresh interpreter to rule that out.
The same fresh interpreter pins the layering: simulating with the
dataflow engine never loads the static verifier built on top of it.
"""

import subprocess
import sys

import pytest

ENTRY_POINTS = [
    "repro",
    "repro.core",
    "repro.dataflow",
    "repro.shiftbuffer",
    "repro.kernel",
    "repro.hardware",
    "repro.runtime",
    "repro.perf",
    "repro.experiments",
    "repro.precision",
    "repro.distributed",
    "repro.analyze",
    "repro.cli",
]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_subpackage_imports_standalone(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("first,second", [
    ("repro.hardware", "repro.kernel"),   # the historical cycle
    ("repro.kernel", "repro.hardware"),
    ("repro.runtime", "repro.experiments"),
    ("repro.precision", "repro.hardware"),
])
def test_import_order_independence(first, second):
    result = subprocess.run(
        [sys.executable, "-c", f"import {first}; import {second}"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


#: Runs the batched engine directly and through ``simulate_kernel``, then
#: fails if any module of the static verifier was loaded on the way.
ENGINE_ONLY = """
import sys
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow import DataflowEngine, DataflowGraph
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel

g = DataflowGraph("p")
g.add(SourceStage("src", range(200)))
g.add(FunctionStage("fn", lambda x: x + 1, latency=4))
g.add(SinkStage("sink"))
g.connect("src", "out", "fn", "in", depth=4)
g.connect("fn", "out", "sink", "in", depth=4)
assert DataflowEngine(g).run().batched_windows >= 1
grid = Grid(nx=6, ny=6, nz=5)
result = simulate_kernel(KernelConfig(grid=grid), random_wind(grid, seed=0))
assert result.aggregate_stats().batched_windows >= 1
loaded = sorted(m for m in sys.modules
                if m == "repro.analyze" or m.startswith("repro.analyze."))
assert not loaded, loaded
"""


def test_batched_runs_do_not_load_the_verifier():
    """The engine opens windows on a runtime recurrence alone, so
    simulating never imports :mod:`repro.analyze`."""
    result = subprocess.run(
        [sys.executable, "-c", ENGINE_ONLY],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


#: Runs ``repro simulate`` at 4³ and prints the top-level ``repro.*``
#: packages it loaded.
SIMULATE_ONLY = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--nx", "4", "--ny", "4", "--nz", "4"]) == 0
print(" ".join(sorted({m.split(".")[1] for m in sys.modules
                       if m.startswith("repro.")})))
"""


def test_simulate_loads_only_the_packages_it_runs():
    """Cold start: ``repro simulate`` loads no verifier, tuner, server,
    scenario, fault, observability, performance-model or host-runtime
    package."""
    result = subprocess.run(
        [sys.executable, "-c", SIMULATE_ONLY],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "cli", "constants", "core", "dataflow", "errors", "kernel", "lint",
        "shiftbuffer"]


def test_public_api_surface():
    """The documented top-level names resolve."""
    import repro

    assert repro.__version__
    assert repro.constants.OPS_PER_CELL == 63
    assert issubclass(repro.ReproError, Exception)
