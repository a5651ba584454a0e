"""Control-identical runs replay from a :class:`ControlRecord`.

A run whose graph has the structure of a run the record already holds
is one relay from cycle 0 to the recorded total.  Forced scalar ticking
(``batched=False``) is the oracle: a replayed run must match it on the
statistics (minus the engine's batching accounting), the output bytes
and the memory-port reports, and report no scalar cycle.  A record that
does not fit the machine raises, and every run with something to
observe per cycle, or with a structure the record lacks, ticks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import SourceSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import ControlRecord, DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.errors import DataflowError, WatchdogTimeout
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.generic import run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.observe import Tracer
from repro.scenarios.kernels import DiffusionKernel
from repro.shiftbuffer.ports import MemoryPortTracker

from ..kernel.test_batched_regimes import _comparable, kernel_runs

GRID = Grid(nx=6, ny=5, nz=6)
BATCH_KEYS = ("batched_windows", "batched_cycles", "batch_fallback_reason")


def chunk_graph(seed=0, *, stream_depth=4, tracker=None):
    """The one-chunk advection graph of ``GRID`` and its output arrays."""
    config = KernelConfig(grid=GRID, stream_depth=stream_depth)
    (chunk,) = config.chunk_plan().chunks
    out = SourceSet.zeros(GRID)
    graph = build_advection_graph(
        config, random_wind(GRID, seed=seed, magnitude=2.0), chunk,
        AdvectionCoefficients.uniform(GRID), out, tracker=tracker)
    return graph, out


def replayed(stats):
    return stats.batched_windows == 1 and stats.batched_cycles == stats.cycles


def without_batching(stats):
    return {key: value for key, value in stats.to_dict().items()
            if key not in BATCH_KEYS}


def recorded(seed=0, **engine_options):
    """A record holding one run of ``chunk_graph``, and that run's stats."""
    record = ControlRecord()
    graph, _ = chunk_graph(seed)
    stats = DataflowEngine(graph, record=record, **engine_options).run()
    assert not replayed(stats) and len(record.runs) == 1
    return record, stats


class TestReplay:
    def test_a_second_run_replays_the_first_and_matches_scalar(self):
        record, first = recorded(seed=0)
        tracker = MemoryPortTracker(enforce=True)
        graph, out = chunk_graph(seed=1, tracker=tracker)
        stats = DataflowEngine(graph, record=record).run()
        scalar_tracker = MemoryPortTracker(enforce=True)
        scalar_graph, scalar_out = chunk_graph(seed=1, tracker=scalar_tracker)
        scalar = DataflowEngine(scalar_graph, batched=False).run()
        assert replayed(stats)
        assert without_batching(stats) == without_batching(scalar) \
            == without_batching(first)
        assert out.same_bits(scalar_out)
        assert tracker.reports() == scalar_tracker.reports()
        assert len(record.runs) == 1

    def test_chunks_of_one_width_replay_within_one_call(self):
        grid = Grid(nx=6, ny=12, nz=5)
        config = KernelConfig(grid=grid, chunk_width=4)
        fields = random_wind(grid, seed=3, magnitude=2.0)
        result = simulate_kernel(config, fields)
        assert [replayed(stats) for stats in result.chunk_stats] \
            == [False, True, True]
        scalar = simulate_kernel(config, fields, batched=False)
        assert _comparable(result) == _comparable(scalar)

    def test_two_calls_never_share_a_record(self):
        grid = Grid(nx=5, ny=5, nz=5)
        fields = random_wind(grid, seed=2, magnitude=2.0)
        for _ in range(2):
            (stats,) = simulate_kernel(KernelConfig(grid=grid),
                                       fields).chunk_stats
            assert not replayed(stats)

    def test_a_disabled_tracer_still_replays(self):
        record, _ = recorded()
        graph, _ = chunk_graph(seed=1)
        stats = DataflowEngine(graph, record=record,
                               tracer=Tracer(enabled=False,
                                             sample_every=64)).run()
        assert replayed(stats)

    def test_a_cap_equal_to_the_recorded_total_replays(self):
        record, first = recorded()
        graph, _ = chunk_graph(seed=1)
        stats = DataflowEngine(graph, record=record, max_cycles=first.cycles,
                               watchdog=first.cycles).run()
        assert replayed(stats)


@pytest.mark.parametrize("tamper", ["fires", "pops", "fingerprint"])
def test_a_record_that_does_not_fit_raises(tamper):
    record, _ = recorded()
    ((key, run),) = record.runs.items()
    d_stage, d_stream = (array.copy() for array in run.counters)
    if tamper == "fires":
        d_stage[0, 0] += 1  # one more read than the block holds
    elif tamper == "pops":
        d_stream[0, 1] -= 1  # a word left behind in the first stream
    record.runs[key] = dataclasses.replace(
        run, counters=(d_stage, d_stream),
        fingerprint=() if tamper == "fingerprint" else run.fingerprint)
    graph, _ = chunk_graph(seed=1)
    with pytest.raises(DataflowError):
        DataflowEngine(graph, record=record).run()


class _VetoStage(FunctionStage):
    """Declares a structure, but vetoes batching from the first cycle."""

    def ff_structure(self):
        return self._structure()

    def ff_signature(self, cycle):
        return None


def pipeline(stage_cls=FunctionStage, items=range(40), *, depth=4):
    graph = DataflowGraph("pipeline")
    graph.add(SourceStage("src", items))
    graph.add(stage_cls("fn", lambda value: value + 1, latency=3))
    graph.add(SinkStage("sink"))
    graph.connect("src", "out", "fn", "in", depth=depth)
    graph.connect("fn", "out", "sink", "in", depth=depth)
    return graph


class TestReplaySkipped:
    """Each of these runs ticks and leaves the record as it was."""

    @pytest.mark.parametrize("options", [
        {"fault_plan": FaultPlan([FaultSpec("fifo", "drop",
                                            match="no-such-stream")])},
        {"tracer": Tracer(sample_every=64)},
        {"tracer": Tracer()},
        {"batched": False},
    ], ids=["fault-plan", "monitor", "tracer", "scalar"])
    def test_runs_observed_per_cycle_tick(self, options):
        record, first = recorded()
        graph, _ = chunk_graph(seed=1)
        stats = DataflowEngine(graph, record=record, **options).run()
        assert not replayed(stats)
        assert without_batching(stats) == without_batching(first)

    @pytest.mark.parametrize("options", [
        {"fault_plan": FaultPlan([FaultSpec("fifo", "drop",
                                            match="no-such-stream")])},
        {"tracer": Tracer(sample_every=64)},
        {"tracer": Tracer()},
        {"batched": False},
    ], ids=["fault-plan", "monitor", "tracer", "scalar"])
    def test_runs_observed_per_cycle_record_nothing(self, options):
        record = ControlRecord()
        graph, _ = chunk_graph()
        DataflowEngine(graph, record=record, **options).run()
        assert record.runs == {}

    def test_another_structure_ticks_and_records_itself(self):
        record, _ = recorded()
        graph, _ = chunk_graph(seed=1, stream_depth=5)
        assert not replayed(DataflowEngine(graph, record=record).run())
        assert len(record.runs) == 2

    @pytest.mark.parametrize("graph", [
        lambda: pipeline(),
        lambda: pipeline(items=iter(range(40))),
        lambda: pipeline(_VetoStage),
    ], ids=["undeclared-stage", "unsized-source", "veto"])
    def test_undeclared_or_vetoing_machines_are_never_recorded(self, graph):
        record = ControlRecord()
        for _ in range(2):
            stats = DataflowEngine(graph(), record=record).run()
            assert not replayed(stats)
        assert record.runs == {}

    def test_a_cap_below_the_recorded_total_raises_as_scalar_would(self):
        record, first = recorded()
        graph, _ = chunk_graph(seed=1)
        with pytest.raises(DataflowError, match="did not quiesce"):
            DataflowEngine(graph, record=record,
                           max_cycles=first.cycles - 1).run()
        graph, _ = chunk_graph(seed=1)
        with pytest.raises(WatchdogTimeout):
            DataflowEngine(graph, record=record,
                           watchdog=first.cycles - 1).run()


@settings(max_examples=25, deadline=None)
@given(kernel_runs(), st.integers(0, 2**16), st.integers(0, 2**16))
def test_replayed_advection_runs_match_scalar_on_other_data(run, seed,
                                                            other):
    """Record every chunk on one input, replay them on another."""
    grid, chunk_width, read_ii = run
    config = (KernelConfig(grid=grid) if chunk_width is None
              else KernelConfig(grid=grid, chunk_width=chunk_width))
    record = ControlRecord()
    simulate_kernel(config, random_wind(grid, seed=seed, magnitude=2.0),
                    read_ii=read_ii, record=record)
    fields = random_wind(grid, seed=other, magnitude=2.0)
    replay = simulate_kernel(config, fields, read_ii=read_ii, record=record)
    scalar = simulate_kernel(config, fields, read_ii=read_ii, batched=False)
    assert all(replayed(stats) for stats in replay.chunk_stats)
    assert _comparable(replay) == _comparable(scalar)
    assert replay.sources.same_bits(scalar.sources)


@st.composite
def stencil_runs(draw):
    shape = (draw(st.integers(3, 7)), draw(st.integers(3, 8)),
             draw(st.integers(3, 9)))
    return shape, draw(st.integers(4, 6))


def stencil_pass(block, depth, **options):
    nx, ny, nz = block.shape
    grid = Grid(nx=nx - 2, ny=ny - 2, nz=nz)
    out = np.zeros((nx - 2, ny - 2, nz))
    tracker = MemoryPortTracker(enforce=True)
    interior, boundary = DiffusionKernel().window_fns(grid)
    stats = run_stencil_kernel(block, interior, boundary, out,
                               stream_depth=depth, tracker=tracker,
                               **options)
    return stats, out, tracker.reports()


def stencil_block(seed, shape, kind):
    """A block of normal floats, of floats half of them ``-0.0``, or of
    small ints (the read stage then streams ``numpy.int64`` items)."""
    rng = np.random.default_rng(seed)
    if kind == "int":
        return rng.integers(-9, 9, size=shape)
    block = rng.normal(size=shape)
    if kind == "signed zeros":
        block[rng.random(shape) < 0.5] = -0.0
    return block


@settings(max_examples=25, deadline=None)
@given(stencil_runs(), st.integers(0, 2**16), st.integers(0, 2**16),
       st.sampled_from(["normal", "signed zeros", "int"]))
def test_replayed_stencil_passes_match_scalar_on_other_data(run, seed, other,
                                                            kind):
    shape, depth = run
    record = ControlRecord()
    stencil_pass(stencil_block(seed, shape, kind), depth, record=record)
    block = stencil_block(other, shape, kind)
    stats, out, ports = stencil_pass(block, depth, record=record)
    scalar, scalar_out, scalar_ports = stencil_pass(block, depth,
                                                    batched=False)
    assert replayed(stats)
    assert without_batching(stats) == without_batching(scalar)
    assert out.tobytes() == scalar_out.tobytes()
    assert ports == scalar_ports
