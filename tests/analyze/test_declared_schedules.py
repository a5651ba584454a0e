"""The proof reads each stage's declared emission schedule, so it proves
the machine the engine runs: the Fig. 2 kernel per chunk, and the
stencil machine's deadlocks, cycle for cycle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_graph, interpret, static_kernel_cycles
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import SinkStage, SourceStage, Stage
from repro.errors import DataflowError
from repro.kernel.builder import build_chunk_graph, build_structural_graph
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.kernel.generic import build_stencil_graph, run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.lint.registry import LintContext
from repro.lint.runner import run_lint
from repro.scenarios.conformance import STATS_BATCH_KEYS

SHIFT_OUT = "shift_buffer.out->replicate.in"


@st.composite
def kernel_configs(draw, *, max_nx: int = 7, max_ny: int = 12):
    ny = draw(st.integers(2, max_ny))
    grid = Grid(nx=draw(st.integers(1, max_nx)), ny=ny,
                nz=draw(st.integers(3, 7)))
    return KernelConfig(
        grid=grid, chunk_width=draw(st.integers(2, ny)),
        stream_depth=draw(st.integers(2, 8)),
        shift_buffer_ii=draw(st.integers(1, 2)),
        advect_latency=draw(st.integers(1, 30)),
        memory_latency=draw(st.integers(1, 20)))


def chunk_graph(config: KernelConfig, width: int, read_ii: int):
    grid = config.grid
    return build_chunk_graph(
        config.for_grid(Grid(grid.nx, width - 2, grid.nz)), read_ii=read_ii)


@settings(max_examples=25, deadline=None)
@given(config=kernel_configs(max_nx=5, max_ny=9), read_ii=st.integers(1, 3),
       batched=st.booleans(), seed=st.integers(0, 99))
def test_advection_proof_equals_the_engine_per_chunk(config, read_ii,
                                                     batched, seed):
    grid = config.grid
    result = simulate_kernel(config, random_wind(grid, seed=seed),
                             read_ii=read_ii, batched=batched)
    for chunk, stats in zip(config.chunk_plan().chunks, result.chunk_stats):
        run = interpret(chunk_graph(config, chunk.read_width, read_ii),
                        (grid.nx + 2) * chunk.read_width * grid.nz)
        assert run.safe
        assert run.cycles == stats.cycles
        assert run.fires == stats.fires
        assert run.stalls == stats.stalls
        assert run.stream_high_water == stats.stream_high_water


@settings(max_examples=40, deadline=None)
@given(config=kernel_configs(), read_ii=st.integers(1, 3))
def test_proved_cycles_equal_the_closed_form(config, read_ii):
    assert (static_kernel_cycles(config, read_ii=read_ii)
            == KernelCycleModel(config, read_ii=read_ii).cycles())


@settings(max_examples=20, deadline=None)
@given(config=kernel_configs(max_nx=4, max_ny=6), read_ii=st.integers(1, 3))
def test_acceleration_never_changes_the_kernel_proof(config, read_ii):
    grid = config.grid
    (chunk, *_) = config.chunk_plan().chunks
    graph = chunk_graph(config, chunk.read_width, read_ii)
    tokens = (grid.nx + 2) * chunk.read_width * grid.nz
    fast = interpret(graph, tokens)
    slow = interpret(graph, tokens, accelerate=False)
    assert (fast.cycles, fast.fires, fast.stalls, fast.stream_high_water) \
        == (slow.cycles, slow.fires, slow.stalls, slow.stream_high_water)


@settings(max_examples=30, deadline=None)
@given(config=kernel_configs(), read_ii=st.integers(1, 3))
def test_the_column_top_pair_needs_depth_two(config, read_ii):
    """What ``KernelConfig``'s ``stream_depth >= 2`` check rests on."""
    structural = analyze_graph(build_structural_graph(config,
                                                      read_ii=read_ii))
    assert structural.occupancy.streams[SHIFT_OUT].min_safe == 2
    width = config.chunk_plan().chunks[0].read_width
    grid = config.grid
    chunk = analyze_graph(chunk_graph(config, width, read_ii),
                          (grid.nx + 2) * width * grid.nz)
    assert chunk.occupancy.streams[SHIFT_OUT].min_safe == 2
    assert structural.ok and chunk.ok


def _interior(window):
    return window.at(0, 0, 0)


def _boundary(window, top):
    return window.at(0, 0, 1 if top else -1)


def stencil_outcome(shape, depth, seed):
    """The proof's and the engine's ``(kind, cycle)`` on one block."""
    out_shape = (shape[0] - 2, shape[1] - 2, shape[2])
    graph = build_stencil_graph(np.zeros(shape), _interior, _boundary,
                                np.zeros(out_shape), stream_depth=depth)
    run = interpret(graph, shape[0] * shape[1] * shape[2])
    proved = (("deadlock", run.deadlock.cycle) if run.deadlock is not None
              else ("ok", run.cycles))
    block = np.random.default_rng(seed).standard_normal(shape)
    try:
        stats = run_stencil_kernel(block, _interior, _boundary,
                                   np.zeros(out_shape), stream_depth=depth)
    except DataflowError as error:
        cycle = re.search(r"at cycle (\d+)", str(error))
        assert cycle is not None, error
        return run, proved, ("deadlock", int(cycle.group(1))), None
    return run, proved, ("ok", stats.cycles), stats


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(st.integers(3, 7), st.integers(3, 7),
                       st.integers(3, 6)),
       depth=st.integers(1, 4), seed=st.integers(0, 99))
def test_stencil_proof_deadlocks_exactly_where_the_engine_does(shape, depth,
                                                              seed):
    run, proved, measured, stats = stencil_outcome(shape, depth, seed)
    assert proved == measured
    if stats is not None:
        assert run.fires == stats.fires
        assert run.stalls == stats.stalls
        assert run.stream_high_water == stats.stream_high_water


@pytest.mark.parametrize("depth, expected", [
    (1, ("deadlock", 99)), (2, ("deadlock", 103)),
    (3, ("ok", 122)), (4, ("ok", 122))])
def test_the_4x4x3_interior(depth, expected):
    _, proved, measured, _ = stencil_outcome((6, 6, 3), depth, seed=0)
    assert proved == measured == expected
    graph = build_stencil_graph(np.zeros((6, 6, 3)), _interior, _boundary,
                                np.zeros((4, 4, 3)), stream_depth=depth)
    report = run_lint(LintContext(graph=graph,
                                  analysis=analyze_graph(graph, 6 * 6 * 3)))
    deadlocks = [d.message for d in report.diagnostics
                 if d.code == "SA401"]
    if expected[0] == "deadlock":
        (message,) = deadlocks
        assert f"deadlock witness at cycle {expected[1]}" in message
        # The witness names the burst the write stream cannot fit.
        assert ("compute: cannot retire 3 items: stream "
                f"'compute.out->write.in' holds 0/{depth}") in message
    else:
        assert not deadlocks


class EveryFifth(Stage):
    """Forwards every fifth item, from the first.  It declares its
    emission schedule and nothing else: no ``ff_*`` hook of its own."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self) -> None:
        super().__init__("dec", latency=1)
        self._fired = 0

    def fire(self, cycle, inputs):
        (item,) = inputs["in"]
        firing, self._fired = self._fired, self._fired + 1
        return {"out": [item]} if firing % 5 == 0 else {}

    def emits(self, firing):
        return (int(firing % 5 == 0),)

    def regime(self, firing):
        return (firing % 5,)


def every_fifth_graph() -> DataflowGraph:
    graph = DataflowGraph("dec")
    graph.add(SourceStage("src", range(400)))
    graph.add(EveryFifth())
    graph.add(SinkStage("sink"))
    graph.connect("src", "out", "dec", "in")
    graph.connect("dec", "out", "sink", "in")
    return graph


def test_a_stage_that_only_declares_its_schedule_batches():
    """The engine reads the schedule the proof reads, so a stage that
    declares its schedule and no ``ff_*`` hook batches: the batched run
    equals forced scalar, and the proof counts the same cycles."""
    runs = {}
    for batched in (False, True):
        graph = every_fifth_graph()
        stats = DataflowEngine(graph, batched=batched).run()
        runs[batched] = (graph.stage("sink").collected, {
            key: value for key, value in stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}, stats)
    assert runs[True][:2] == runs[False][:2]
    assert runs[True][0] == list(range(0, 400, 5))
    assert runs[True][2].batched_cycles > 0
    assert analyze_graph(every_fifth_graph()).ok
    assert interpret(every_fifth_graph(), 400).cycles \
        == runs[False][2].cycles == 402
