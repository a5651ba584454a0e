"""The proof ticks its token twin's stages with the library's own
``Stage.tick``: once per stage per cycle it does not jump, and never
through the engine."""

from unittest import mock

import pytest

import repro.dataflow.compiled as compiled
import repro.dataflow.engine as engine
from repro.analyze import interpret
from repro.core.grid import Grid
from repro.dataflow.stage import Stage
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.scenarios import get as get_scenario


def advection_graph():
    return build_structural_graph(
        KernelConfig(grid=Grid(8, 8, 8), stream_depth=4))


def diffusion_graph():
    return get_scenario("diffusion").kernel.structural_graph(Grid(8, 8, 8))


@pytest.mark.parametrize("build, ticks", [(advection_graph, 770),
                                          (diffusion_graph, 132)])
def test_every_cycle_not_jumped_ticks_every_stage_once(build, ticks):
    graph = build()
    with mock.patch.object(Stage, "tick", autospec=True,
                           side_effect=Stage.tick) as tick:
        run = interpret(graph)
    assert run.safe and run.advances > 0
    assert tick.call_count == ticks
    assert ticks == len(graph.stages) * (run.cycles - run.advanced_cycles)


def test_the_proof_runs_no_engine_and_relays_no_window(monkeypatch):
    """Period jumps commit on the stages themselves; the engine's run
    and its window relay, which the wall-clock tracer books under
    ``dataflow.*``, are never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the proof reached an engine path")

    monkeypatch.setattr(engine.DataflowEngine, "run", refuse)
    monkeypatch.setattr(engine, "execute_window", refuse)
    monkeypatch.setattr(compiled, "execute_window", refuse)
    for build in (advection_graph, diffusion_graph):
        assert interpret(build()).advances > 0
