"""Import hygiene: every subpackage must import standalone, in any order.

A circular import can hide behind a lucky import order in the test suite
(it did once, between ``repro.hardware`` and ``repro.kernel``); these
tests import each entry point in a fresh interpreter to rule that out.
Every subpackage loads its exports on first use (``repro.LazyExports``),
so the order tests read every exported name, and a contract test holds
each package's table to its ``__all__``.  The same fresh interpreter pins
the layering: simulating with the dataflow engine never loads the static
verifier built on top of it, and serving never loads the tuner's search,
the prover or the engine.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Every subpackage, found on disk, so a new one is covered automatically.
PACKAGES = sorted(
    f"repro.{init.parent.name}"
    for init in Path(repro.__file__).parent.glob("*/__init__.py"))

ENTRY_POINTS = ["repro", *PACKAGES, "repro.cli"]


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    """Runs ``code`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_subpackage_imports_standalone(module):
    result = _run(f"import {module}")
    assert result.returncode == 0, result.stderr


#: Imports each module named on the command line in turn and reads every
#: name it exports, so lazily exported names load in that order too.
IMPORT_IN_ORDER = """
import importlib, sys
for name in sys.argv[1:]:
    module = importlib.import_module(name)
    for export in module.__all__:
        getattr(module, export)
"""


@pytest.mark.parametrize("first,second", [
    ("repro.hardware", "repro.kernel"),   # the historical cycle
    ("repro.kernel", "repro.hardware"),
    ("repro.runtime", "repro.experiments"),
    ("repro.precision", "repro.hardware"),
    ("repro.serve", "repro.tune"),        # serve prices with tune.admission
    ("repro.tune", "repro.serve"),
    ("repro.faults", "repro.dataflow"),   # fault words are stream words
    ("repro.dataflow", "repro.faults"),
    ("repro.kernel.cycle_model", "repro.kernel.builder"),
    ("repro.kernel.builder", "repro.kernel.cycle_model"),
])
def test_import_order_independence(first, second):
    result = _run(IMPORT_IN_ORDER, first, second)
    assert result.returncode == 0, result.stderr


#: The lazy-export contract of the package named on the command line.
EXPORT_CONTRACT = """
import importlib, sys
name = sys.argv[1]
package = importlib.import_module(name)
loaded = sorted(m for m in sys.modules if m.startswith(name + "."))
assert not loaded, f"importing {name} loaded {loaded}"

exported = set(package.__all__)
table = package._EXPORTS.table
assert len(exported) == len(package.__all__), "a name repeats in __all__"
assert set(table) <= exported, sorted(set(table) - exported)
own = exported - set(table)
assert own <= set(vars(package)), sorted(own - set(vars(package)))
assert exported <= set(dir(package)), sorted(exported - set(dir(package)))

# A submodule that fails to import raises its own error.
first = next(iter(table))
sys.modules[table[first]] = None
try:
    getattr(package, first)
except ImportError as error:
    assert table[first] in str(error), error
else:
    raise AssertionError(f"{first} resolved without its module")
del sys.modules[table[first]]

namespace = {}
exec(f"from {name} import *", namespace)
del namespace["__builtins__"]
assert set(namespace) == exported, sorted(set(namespace) ^ exported)
for export, module in table.items():
    home = getattr(sys.modules[module], export)
    assert getattr(package, export) is home, export
    assert namespace[export] is home, export

try:
    getattr(package, "no_such_name")
except AttributeError as error:
    assert repr(name) in str(error), error
else:
    raise AssertionError("an unknown name resolved")
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_load_on_first_use(package):
    """Importing a package loads none of its submodules; each exported
    name then resolves to its submodule's object, ``dir`` and ``import *``
    see every name, and an unknown name is an ``AttributeError`` naming
    the package."""
    result = _run(EXPORT_CONTRACT, package)
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
    result = _run(ENGINE_ONLY)
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
    result = _run(SIMULATE_ONLY)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "cli", "constants", "core", "dataflow", "errors", "kernel", "lint",
        "shiftbuffer"]


#: Runs ``repro serve`` on a small load and prints every ``repro.*``
#: module it loaded.
SERVE_ONLY = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["serve", "--jobs", "8", "--nx", "8", "--ny", "8",
                 "--nz", "8"]) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro."))))
"""

#: Packages serving never runs: the verifier, the performance models,
#: the number formats and the backends.
NOT_SERVED_PACKAGES = ("repro.analyze", "repro.perf", "repro.precision",
                       "repro.backend")

#: Modules serving never runs: the tuner's search and measured tier, the
#: graph builder and its stages, the cycle engine and the shift buffer.
#: The exact tier reads the closed-form cycle count instead.
NOT_SERVED_MODULES = (
    "repro.tune.cost", "repro.tune.measure", "repro.tune.strategies",
    "repro.tune.tuner",
    "repro.kernel.builder", "repro.kernel.stages", "repro.kernel.simulate",
    "repro.dataflow.engine", "repro.dataflow.graph", "repro.dataflow.compiled",
    "repro.shiftbuffer.buffer3d",
)


#: Modules only ``repro serve``'s flags use: the observers (``--trace``,
#: ``--metrics``) and the fault plan with the stream words it reads
#: (``--chaos``).
FLAG_ONLY_MODULES = (
    "repro.observe", "repro.observe.metrics", "repro.observe.trace",
    "repro.observe.export", "repro.faults.plan", "repro.dataflow",
    "repro.dataflow.stream",
)


@pytest.fixture(scope="module")
def served_modules() -> list[str]:
    """Every ``repro.*`` module a plain ``repro serve`` run loads."""
    result = _run(SERVE_ONLY)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_serve_loads_only_what_it_serves(served_modules):
    """Cold start: ``repro serve`` prices with ``repro.tune.admission``
    without loading the rest of the tuner."""
    unexpected = [
        module for module in served_modules
        if module in NOT_SERVED_MODULES
        or module.startswith(tuple(f"{package}." for package
                                   in NOT_SERVED_PACKAGES))
        or module in NOT_SERVED_PACKAGES]
    assert not unexpected, unexpected


def test_plain_serve_loads_no_flag_only_module(served_modules):
    """Cold start: without ``--trace``, ``--metrics`` or ``--chaos``,
    ``repro serve`` imports no observer and no fault plan."""
    unexpected = [module for module in served_modules
                  if module in FLAG_ONLY_MODULES]
    assert not unexpected, unexpected


def test_public_api_surface():
    """The documented top-level names resolve."""
    assert repro.__version__
    assert repro.constants.OPS_PER_CELL == 63
    assert issubclass(repro.ReproError, Exception)
