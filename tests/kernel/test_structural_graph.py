"""The structural graph is the engine's graph, built on data-free inputs.

Lint, the static analyzer and the tuner read the graph each kernel's
own builder wires: the Fig. 2 chunk graph on zero fields over the
smallest grid a configuration accepts, and the stencil machine on a zero
3×3×3 block.  No stage's control reads a data value, so a graph wired on
zero inputs must prove exactly what the graph the engine runs on real
data of the same geometry proves, and every consumer must see the
engine's stage classes, not stand-ins.
"""

import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analyze
import repro.analyze.kernel
import repro.lint.runner
import repro.tune.cost
from repro.analyze import analyze_graph, static_kernel_cycles
from repro.backend import get_backend
from repro.cli import main
from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import SourceSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.hardware import ALVEO_U280
from repro.kernel.builder import (
    build_advection_graph,
    build_chunk_graph,
    build_structural_graph,
)
from repro.kernel.config import KernelConfig
from repro.kernel.generic import WindowComputeStage, build_stencil_graph
from repro.kernel.stages import (
    AdvectStage,
    ReadDataStage,
    ReplicateStage,
    ShiftBufferStage,
    WriteDataStage,
)
from repro.lint.runner import lint_kernel
from repro.lint.spec import load_spec
from repro.scenarios import get as get_scenario
from repro.scenarios.kernels import BuoyancyKernel, DiffusionKernel
from repro.tune.cost import CostModel
from repro.tune.space import TunePoint

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "graphs"
ADVECTION_STAGES = {ReadDataStage, ShiftBufferStage, ReplicateStage,
                    AdvectStage, WriteDataStage}
STENCIL_STAGES = {ReadDataStage, ShiftBufferStage, WindowComputeStage,
                  WriteDataStage}
GRID = Grid(nx=4, ny=6, nz=4)
CONFIG = KernelConfig(grid=GRID, chunk_width=3)


def stage_types(graph) -> set[type]:
    return {type(stage) for stage in graph.stages}


def proof(graph, name: str) -> dict:
    """``graph``'s analyzer output with the graph named ``name``."""
    graph.name = name
    return analyze_graph(graph).to_dict()


@st.composite
def advection_configs(draw):
    ny = draw(st.integers(2, 10))
    grid = Grid(nx=draw(st.integers(1, 6)), ny=ny, nz=draw(st.integers(3, 8)))
    config = KernelConfig(
        grid=grid, chunk_width=draw(st.integers(2, ny + 2)),
        stream_depth=draw(st.integers(2, 8)),
        shift_buffer_ii=draw(st.integers(1, 2)),
        advect_latency=draw(st.integers(1, 30)),
        memory_latency=draw(st.integers(1, 20)))
    chunks = config.chunk_plan().chunks
    chunk = chunks[draw(st.integers(0, len(chunks) - 1))]
    return config, chunk, draw(st.integers(1, 3)), draw(st.integers(0, 99))


@settings(max_examples=40, deadline=None)
@given(advection_configs())
def test_advection_proof_equals_the_run_graphs_proof(params):
    config, chunk, read_ii, seed = params
    grid = config.grid
    run_graph = build_advection_graph(
        config, random_wind(grid, seed=seed), chunk,
        AdvectionCoefficients.uniform(grid), SourceSet.zeros(grid),
        read_ii=read_ii)
    zero_graph = build_chunk_graph(
        config.for_grid(Grid(grid.nx, chunk.read_width - 2, grid.nz)),
        read_ii=read_ii)
    assert stage_types(build_structural_graph(
        config, read_ii=read_ii)) == ADVECTION_STAGES
    assert (proof(zero_graph, "advection")
            == proof(run_graph, "advection"))


@settings(max_examples=30, deadline=None)
@given(shape=st.tuples(st.integers(3, 6), st.integers(3, 6),
                       st.integers(3, 6)),
       depth=st.integers(1, 8),
       kind=st.sampled_from([DiffusionKernel, BuoyancyKernel]),
       seed=st.integers(0, 99))
def test_stencil_proof_equals_the_run_graphs_proof(shape, depth, kind,
                                                   seed):
    kernel = kind()
    kernel.stream_depth = depth
    grid = Grid(nx=shape[0] - 2, ny=shape[1] - 2, nz=shape[2])
    interior, boundary = kernel.window_fns(grid)
    block = np.random.default_rng(seed).standard_normal(shape)
    out = np.zeros((shape[0] - 2, shape[1] - 2, shape[2]))
    run_graph = build_stencil_graph(block, interior, boundary, out,
                                    stream_depth=depth)
    zero_graph = build_stencil_graph(np.zeros(shape), interior, boundary,
                                     np.zeros_like(out), stream_depth=depth)
    assert stage_types(kernel.structural_graph(grid)) == STENCIL_STAGES
    assert proof(zero_graph, kernel.kind) == proof(run_graph, kernel.kind)


def test_both_machines_share_one_front_end():
    """The advection graph's read, shift and write stages and the
    stencil machine's are instances of the same three classes; only the
    compute stages differ."""
    advection = build_structural_graph(CONFIG)
    stencil = DiffusionKernel().structural_graph(GRID)
    for cls, (ours, theirs) in ((ReadDataStage, ("read_data", "read")),
                                (ShiftBufferStage,
                                 ("shift_buffer", "shift")),
                                (WriteDataStage, ("write_data", "write"))):
        assert type(advection.stage(ours)) is cls
        assert type(stencil.stage(theirs)) is cls


def spy(monkeypatch, module, name: str, pick) -> list:
    """Record ``pick(*args, **kwargs)`` for each call to ``module.name``."""
    seen: list = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(pick(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen


class TestEveryConsumerReadsTheEnginesGraph:
    def test_lint_kernel(self, monkeypatch):
        seen = spy(monkeypatch, repro.lint.runner, "run_lint",
                   lambda context, **_: context.graph)
        lint_kernel(CONFIG, ALVEO_U280, 2)
        assert [stage_types(graph) for graph in seen] == [ADVECTION_STAGES]

    def test_json_spec(self):
        graph = load_spec(EXAMPLES / "advection_u280.json").context.graph
        assert stage_types(graph) == ADVECTION_STAGES

    def test_static_kernel_cycles(self, monkeypatch):
        seen = spy(monkeypatch, repro.analyze.kernel, "interpret",
                   lambda graph, *_, **__: graph)
        static_kernel_cycles(CONFIG)
        assert seen
        assert all(stage_types(graph) == ADVECTION_STAGES for graph in seen)

    def test_cost_model(self, monkeypatch):
        proved = spy(monkeypatch, repro.tune.cost, "analyze_graph",
                     lambda graph, *_, **__: graph)
        linted = spy(monkeypatch, repro.tune.cost, "lint_kernel",
                     lambda *_, graph, **__: graph)
        point = TunePoint(chunk_width=3, num_kernels=1, stream_depth=4,
                          precision="float64", memory="hbm2", x_chunks=2,
                          overlapped=True)
        assert CostModel(ALVEO_U280, GRID).evaluate(point).feasible
        # Both lint passes, the whole catalogue and then the rules that
        # read the replica count, read the very graph the model proved.
        assert len(proved) == 1 and linted == proved * 2
        assert stage_types(proved[0]) == ADVECTION_STAGES

    def test_fpga_backend(self):
        graph = get_backend("fpga_shiftbuffer").structural_graph(GRID)
        assert stage_types(graph) == ADVECTION_STAGES

    def test_scenario_kernels(self):
        for name, expected in (("pw-advection", ADVECTION_STAGES),
                               ("diffusion", STENCIL_STAGES),
                               ("buoyancy", STENCIL_STAGES)):
            scenario = get_scenario(name)
            graph = scenario.kernel.structural_graph(scenario.default_grid())
            assert stage_types(graph) == expected, name

    def test_repro_analyze(self, monkeypatch, capsys):
        seen = spy(monkeypatch, repro.analyze, "analyze_graph",
                   lambda graph, *_, **__: graph)
        assert main(["analyze", "--nx", "4", "--ny", "6", "--nz", "4"]) == 0
        assert main(["analyze", "--scenario", "buoyancy"]) == 0
        capsys.readouterr()
        assert [stage_types(graph) for graph in seen] == [
            ADVECTION_STAGES, STENCIL_STAGES]

