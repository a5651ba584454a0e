"""Batched windows cover the shift buffer's outer and inner regimes.

The shift-buffer stage summarises its streaming position per control
regime: an outer key (prime planes, then one-plane periods) and an inner
key (silent feeds, and one-column periods inside a plane's emitting
rows).  The batched engine hunts both, so it batches the fill ramp, the
steady planes, and the silent and emitting columns of the plane that
proves the plane period and of the final plane, where it reuses the
column period already proved.  One oracle judges every fault-free run:
forced scalar ticking (``batched=False``).  A batched run must match it
on the aggregate statistics (minus the engine's own batching
accounting), the source arrays byte for byte, and the memory-port
reports.

Both ticking paths hand on runs of the values the shift stage was fed,
so the last tests reach one level further down, to the register model
(:meth:`ShiftBuffer3D.feed`), which no engine stage runs: a checking
shim of the shift stage feeds it every consumed cell's values and
asserts that every bundle the stage hands on holds its windows, on
fault-free runs and on runs whose stream lost a word, and that the
stage books its ports.
"""

import itertools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.dataflow.engine import ControlRecord, DataflowEngine
from repro.errors import PortConflictError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel import builder, generic
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.generic import build_stencil_graph, run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.kernel.stages import ShiftBufferStage, StencilBulk, runs_of
from repro.observe import Tracer
from repro.scenarios import scenarios
from repro.scenarios.kernels import DiffusionKernel
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker
from tests.dataflow.test_batched_exact import assert_windows_between_samples


def _comparable(result):
    stats = result.aggregate_stats().to_dict()
    for key in ("batched_windows", "batched_cycles",
                "batch_fallback_reason"):
        stats.pop(key)
    return (stats,
            [array.tobytes() for array in result.sources.as_tuple()],
            result.port_tracker.reports())


def run_against_scalar(config, fields, **kwargs):
    """Run batched and forced scalar; assert they agree; return batched.

    A second batched pass shares the first one's control record, so
    every one of its chunks replays as one bulk step: it must agree
    with forced scalar too, with no scalar cycle left.
    """
    scalar = simulate_kernel(config, fields, batched=False, **kwargs)
    record = ControlRecord()
    batched = simulate_kernel(config, fields, batched=True, record=record,
                              **kwargs)
    replayed = simulate_kernel(config, fields, batched=True, record=record,
                               **kwargs)
    for run in (batched, replayed):
        assert _comparable(run) == _comparable(scalar)
        assert run.sources.same_bits(scalar.sources)
    assert all(stats.batched_cycles == stats.cycles
               and stats.batched_windows == 1
               for stats in replayed.chunk_stats)
    return batched


@st.composite
def kernel_runs(draw):
    nx = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 10))
    # The kernel needs nz >= 3 for its vertical stencil.
    nz = draw(st.integers(3, 8))
    chunk_width = draw(st.one_of(st.none(), st.integers(2, max(ny, 2))))
    read_ii = draw(st.sampled_from((1, 2, 3)))
    return Grid(nx=nx, ny=ny, nz=nz), chunk_width, read_ii


@settings(max_examples=80, deadline=None)
@given(kernel_runs(), st.integers(0, 2**16))
def test_generated_grids_match_scalar(run, seed):
    grid, chunk_width, read_ii = run
    config = (KernelConfig(grid=grid) if chunk_width is None
              else KernelConfig(grid=grid, chunk_width=chunk_width))
    run_against_scalar(config, random_wind(grid, seed=seed, magnitude=2.0),
                       read_ii=read_ii)


def _steady_plane(config):
    """Feeds (one per cycle) in one Y-Z plane of the kernel's only chunk."""
    (chunk,) = config.chunk_plan().chunks
    return chunk.read_width * config.grid.nz


class TestScalarRemainder:
    """Less than one steady plane ticks scalar: the read fill, the silent
    columns and proving column of the first steady plane, the cycles
    until the next plane recurs, the final plane's silent and proving
    columns, and the drain."""

    def check(self, n):
        grid = Grid(nx=n, ny=n, nz=n)
        config = KernelConfig(grid=grid)
        result = run_against_scalar(config,
                                    random_wind(grid, seed=0, magnitude=2.0))
        agg = result.aggregate_stats()
        assert result.total_cycles - agg.batched_cycles < _steady_plane(config)

    def test_16_cubed(self):
        self.check(16)

    def test_32_cubed(self):
        self.check(32)

    def test_64_cubed_batched(self):
        # Paper scale, batched only: forced scalar takes tens of seconds.
        grid = Grid(nx=64, ny=64, nz=64)
        config = KernelConfig(grid=grid)
        result = simulate_kernel(config,
                                 random_wind(grid, seed=0, magnitude=2.0))
        agg = result.aggregate_stats()
        assert result.total_cycles - agg.batched_cycles \
            < _steady_plane(config) // 4


def test_window_spans_name_their_level():
    """At 16^3 the engine opens, in order: the prime window (outer,
    period 1), the proving plane's silent columns (inner, period 1) and
    emitting columns (inner, one column), the steady planes (outer, one
    plane) and the final plane's emitting columns (inner, one column:
    the period the proving plane proved, reused from the column it
    recurs in)."""
    grid = Grid(nx=16, ny=16, nz=16)
    tracer = Tracer()
    result = simulate_kernel(KernelConfig(grid=grid),
                             random_wind(grid, seed=0, magnitude=2.0),
                             tracer=tracer)
    windows = [span for span in tracer.spans if span.category == "batched"]
    assert [(span.args["level"], span.args["period"]) for span in windows] \
        == [("outer", 1), ("inner", 1), ("inner", 16), ("outer", 288),
            ("inner", 16)]
    assert [span.end - span.start for span in windows] \
        == [575, 30, 208, 4032, 208]
    assert sum(span.end - span.start for span in windows) \
        == result.aggregate_stats().batched_cycles


def test_final_plane_reuses_the_proved_column_period():
    """The final plane runs the column period the proving plane proved as
    soon as its key recurs: one column into its plane earlier than the
    proving plane, which first had to tick that column to prove it.  The
    run ticks 180 scalar cycles, against 226 when every plane proves its
    own columns."""
    grid = Grid(nx=16, ny=16, nz=16)
    tracer = Tracer()
    result = simulate_kernel(KernelConfig(grid=grid),
                             random_wind(grid, seed=0, magnitude=2.0),
                             tracer=tracer)
    plane = 18 * 16
    columns = [span for span in tracer.spans if span.category == "batched"
               and span.args["level"] == "inner" and span.args["period"] == 16]
    proving, final = columns[0], columns[-1]
    assert proving.start // plane == 2 and final.start // plane == 17
    assert final.start - 17 * plane == proving.start - 2 * plane - 16
    agg = result.aggregate_stats()
    assert result.total_cycles - agg.batched_cycles == 180


def test_prime_is_batched_before_the_first_emission():
    grid = Grid(nx=6, ny=6, nz=6)
    fields = random_wind(grid, seed=4, magnitude=2.0)
    config = KernelConfig(grid=grid)
    (chunk,) = config.chunk_plan().chunks
    graph = build_advection_graph(
        config, fields, chunk, AdvectionCoefficients.uniform(grid),
        SourceSet.zeros(grid))
    tracer = Tracer()
    DataflowEngine(graph, tracer=tracer).run()
    first_emit = graph.stage("shift_buffer").first_emit_cycle
    windows = [span for span in tracer.spans if span.category == "batched"]
    assert first_emit is not None and windows
    assert min(span.start for span in windows) < first_emit


def test_multi_kernel_run_reports_its_split():
    """An ample 2-kernel run batches every regime of every chunk and
    reports the merged split."""
    grid = Grid(nx=32, ny=32, nz=16)
    fields = random_wind(grid, seed=2, magnitude=2.0)
    config = KernelConfig(grid=grid, chunk_width=16)
    scalar = simulate_kernel(config, fields, num_kernels=2, batched=False)
    result = simulate_kernel(config, fields, num_kernels=2)
    assert result.total_cycles == scalar.total_cycles
    assert (result.arbiter.grants, result.arbiter.denials) \
        == (scalar.arbiter.grants, scalar.arbiter.denials)
    assert [a.tobytes() for a in result.sources.as_tuple()] \
        == [a.tobytes() for a in scalar.sources.as_tuple()]
    split = scalar.aggregate_stats()
    assert split.batched_windows == split.batched_cycles == 0
    chunks = config.chunk_plan().chunks
    steady_plane = chunks[0].read_width * grid.nz
    split = result.aggregate_stats()
    assert split.batch_fallback_reason is None
    assert result.total_cycles - split.batched_cycles \
        < steady_plane * len(chunks)


def _probed(graph, stride, batched):
    """A run's statistics (minus the batched split) and the strided
    samples of an enabled tracer, and the run's batched window count;
    every window must fall between the samples."""
    tracer = Tracer(sample_every=stride)
    stats = DataflowEngine(graph, tracer=tracer, batched=batched).run()
    assert_windows_between_samples(tracer)
    return ({key: value for key, value in stats.to_dict().items()
             if not key.startswith("batch")}, tracer.counters), \
        stats.batched_windows


def _probed_advection(grid, chunk_width, read_ii, stride, batched):
    config = KernelConfig(grid=grid, chunk_width=chunk_width)
    fields = random_wind(grid, seed=3, magnitude=2.0)
    out = SourceSet.zeros(grid)
    runs, windows = [], 0
    for chunk in config.chunk_plan().chunks:
        graph = build_advection_graph(
            config, fields, chunk, AdvectionCoefficients.uniform(grid), out,
            read_ii=read_ii)
        run, run_windows = _probed(graph, stride, batched)
        runs.append(run)
        windows += run_windows
    return (runs, [array.tobytes() for array in out.as_tuple()]), windows


def _probed_stencil(grid, depth, stride, batched):
    block = random_wind(grid, seed=3, magnitude=2.0).u
    interior, boundary = DiffusionKernel().window_fns(grid)
    out = np.zeros(grid.interior_shape)
    graph = build_stencil_graph(block, interior, boundary, out,
                                stream_depth=depth)
    run, windows = _probed(graph, stride, batched)
    return (run, out.tobytes()), windows


@pytest.mark.parametrize(("stride", "read_ii", "chunk_width"),
                         itertools.product((3, 47, 201), (1, 2, 3), (4, 9)))
def test_monitored_advection_runs_match_scalar(stride, read_ii, chunk_width):
    """Strided tracer samples bound every window; at stride 201, read
    II 2, one chunk, a first occurrence left in one plane's last column
    recurs in the next plane's columns with a period no column regime
    holds."""
    args = (Grid(nx=6, ny=9, nz=7), chunk_width, read_ii, stride)
    batched, windows = _probed_advection(*args, True)
    assert batched == _probed_advection(*args, False)[0]
    # Stride 3 leaves two-cycle gaps, which most read II 2 and 3 periods
    # overrun.
    assert windows or stride == 3


@pytest.mark.parametrize(("stride", "depth"),
                         itertools.product((3, 47, 201), (4, 6)))
def test_monitored_stencil_runs_match_scalar(stride, depth):
    args = (Grid(nx=6, ny=9, nz=7), depth, stride)
    batched, windows = _probed_stencil(*args, True)
    assert batched == _probed_stencil(*args, False)[0]
    assert windows


# -- the register model as the oracle ---------------------------------------


def _bundle_bytes(bundle):
    return tuple((window.center, window.top, window.raw.tobytes())
                 for window in bundle)


class RegisterModelCheck(ShiftBufferStage):
    """The shift stage, checked against the register model.

    It feeds a private :class:`ShiftBuffer3D` per block, on the
    :attr:`ledger` tracker, the values of every cell it consumes, before
    the stage itself fires, and asserts that every bundle the stage
    hands on equals the windows :meth:`ShiftBuffer3D.feed` emits, in
    centre, ``top`` and raw bytes, cut with :meth:`StencilBulk.bundle_at`
    over its runs.  An enforced port conflict therefore raises from the
    register model first.
    """

    #: The register model's port ledger, shared by every check one
    #: :func:`register_model_check` builds.
    ledger: MemoryPortTracker

    def __init__(self, name, blocks, **kwargs):
        super().__init__(name, blocks, **kwargs)
        self._values = tuple(np.asarray(block, dtype=float).reshape(-1)
                             for block in blocks)
        self.model = tuple(
            ShiftBuffer3D(buffer.nx, buffer.ny, buffer.nz,
                          partitioned=buffer.partitioned,
                          tracker=self.ledger, name=buffer.name)
            for buffer in self.buffers)

    def _model_bundles(self, cells):
        """Feed the model ``cells``; return the bundles it forwards."""
        bundles = []
        for cell in cells:
            emitted = [buffer.feed(values.item(cell))
                       for buffer, values in zip(self.model, self._values)]
            bundles.extend(_bundle_bytes(bundle) for bundle in zip(*emitted)
                           if self.tops or not bundle[0].top)
        return bundles

    @staticmethod
    def _check(want, runs):
        got = [_bundle_bytes(run.bundle_at(index)) for run in runs
               for index in range(run.start, run.stop)]
        assert got == want, "a bundle differs from the register model's"

    def fire(self, cycle, inputs):
        want = self._model_bundles(inputs["in"])
        produced = super().fire(cycle, inputs)
        self._check(want, produced.get("out", []))
        return produced

    def fire_bulk(self, count, inputs, cycle):
        want = self._model_bundles(inputs["in"].materialize())
        result = super().fire_bulk(count, inputs, cycle)
        self._check(want, runs_of(result.head_bulk(
            "out", result.producing_firings), StencilBulk))
        return result

    def reset(self):
        super().reset()
        for buffer in self.model:
            buffer.reset()


@contextmanager
def register_model_check(*, enforce=False):
    """Build both machines' shift stages as :class:`RegisterModelCheck`;
    yield the register model's port ledger."""
    ledger = MemoryPortTracker(enforce=enforce)
    check = type("RegisterModelCheck", (RegisterModelCheck,),
                 {"ledger": ledger})
    with mock.patch.object(builder, "ShiftBufferStage", check), \
            mock.patch.object(generic, "ShiftBufferStage", check):
        yield ledger


def _stencil_graph(block, grid):
    """The stencil machine of ``run_stencil_kernel`` on ``block``."""
    interior, boundary = DiffusionKernel().window_fns(grid)
    out = np.zeros(grid.interior_shape)
    return build_stencil_graph(block, interior, boundary, out), (out,)


def _advection_graph(fields):
    grid = fields.grid
    config = KernelConfig(grid=grid)
    chunk = config.chunk_plan().chunks[0]
    out = SourceSet.zeros(grid)
    return build_advection_graph(
        config, fields, chunk, AdvectionCoefficients.uniform(grid),
        out), out.as_tuple()


def _dropped_word_run(build, *, batched, probability, seed, stream):
    """One plain engine run with one FIFO drop armed on ``stream``:
    the error text, the output bytes and the fault trace."""
    plan = FaultPlan([FaultSpec(site="fifo", kind="drop", match=stream,
                                probability=probability, count=1)],
                     seed=seed)
    graph, outs = build()
    try:
        DataflowEngine(graph, batched=batched, fault_plan=plan).run()
        error = None
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return error, [out.tobytes() for out in outs], plan.trace_key()


def _machines(grid, periodic, seed):
    """Both machines on one case's data: ``(build, stream)`` each."""
    rng = np.random.default_rng(seed)
    shape = grid.interior_shape
    fields = FieldSet.from_interior(
        grid, rng.normal(size=shape), rng.normal(size=shape),
        rng.normal(size=shape), periodic=periodic)
    block = np.zeros(grid.halo_shape)
    grid.interior(block)[...] = rng.normal(size=shape)
    if periodic:
        grid.fill_periodic_halo(block)
    return ((lambda: _advection_graph(fields),
             "read_data.out->shift_buffer.in"),
            (lambda: _stencil_graph(block, grid), "read.out->shift.in"))


@st.composite
def dropped_word_cases(draw):
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 7))
    nz = draw(st.integers(3, 6))
    periodic = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    probability = draw(st.sampled_from((1.0, 0.3, 0.02, 0.005)))
    return Grid(nx=nx, ny=ny, nz=nz), periodic, seed, probability


@settings(max_examples=40, deadline=None)
@given(dropped_word_cases())
def test_a_dropped_word_runs_the_register_model(case):
    """A word dropped on a shift stage's input shifts its stream off the
    block: every bundle of batched and forced-scalar runs must still
    hold the register model's windows on the values fed, and both runs
    end alike, with the same error text, output bytes and fault trace,
    on both machines.  Open halos are zero faces, whose values a shifted
    stream can match by accident."""
    grid, periodic, seed, probability = case
    for build, stream in _machines(grid, periodic, seed):
        kwargs = dict(probability=probability, seed=seed, stream=stream)
        outcomes = []
        for batched in (True, False):
            with register_model_check():
                outcomes.append(_dropped_word_run(build, batched=batched,
                                                  **kwargs))
        assert outcomes[0] == outcomes[1], stream


def test_no_engine_run_touches_the_register_model(monkeypatch):
    """Every path of both machines, fault-free or after a dropped word,
    cuts its windows lazily: batched, forced scalar and a scenario's
    replayed batches call no :meth:`ShiftBuffer3D.feed`, and no
    :meth:`ShiftBuffer3D.window_at` while an engine run is in
    progress."""
    def forbidden(self, *args, **kwargs):
        raise AssertionError("the register model ran in an engine run")

    running = []
    run = DataflowEngine.run

    def tracked_run(engine):
        running.append(engine)
        try:
            return run(engine)
        finally:
            running.pop()

    window_at = ShiftBuffer3D.window_at

    def checked_window_at(buffer, index, backing):
        assert not running, "a window was cut in an engine run"
        return window_at(buffer, index, backing)

    monkeypatch.setattr(DataflowEngine, "run", tracked_run)
    monkeypatch.setattr(ShiftBuffer3D, "feed", forbidden)
    monkeypatch.setattr(ShiftBuffer3D, "window_at", checked_window_at)
    grid = Grid(nx=6, ny=9, nz=5)
    fields = random_wind(grid, seed=5, magnitude=2.0)
    config = KernelConfig(grid=grid, chunk_width=4)
    reference = advect_reference(fields, AdvectionCoefficients.uniform(grid))
    interior, boundary = DiffusionKernel().window_fns(grid)
    stencil = []
    for batched in (True, False):
        result = simulate_kernel(config, fields, batched=batched)
        assert result.sources.same_bits(reference)
        out = np.zeros(grid.interior_shape)
        run_stencil_kernel(fields.u, interior, boundary, out,
                           batched=batched)
        stencil.append(out.tobytes())
    assert stencil[0] == stencil[1]
    replays = 0
    for scenario in scenarios():
        small = scenario.small_grid()
        result = scenario.run(small, seed=1)
        replays += sum(1 for _ in result.batches) - 1
        for got, want in zip(result.batches,
                             scenario.reference(small, seed=1), strict=True):
            assert got.same_bits(want), scenario.name
    assert replays > 0
    dropped = 0
    for build, stream in _machines(Grid(nx=4, ny=5, nz=5), False, 3):
        for batched in (True, False):
            _error, _outs, trace = _dropped_word_run(
                build, batched=batched, probability=0.02, seed=3,
                stream=stream)
            dropped += len(trace)
    assert dropped == 4


def test_a_nan_stays_on_the_one_path(monkeypatch):
    """A NaN among the first streamed cells is a value like any other:
    the run calls :meth:`ShiftBuffer3D.feed` not once, and its bytes
    are forced scalar's."""
    calls = []
    feed = ShiftBuffer3D.feed

    def counted_feed(buffer, value):
        calls.append(value)
        return feed(buffer, value)

    monkeypatch.setattr(ShiftBuffer3D, "feed", counted_feed)
    grid = Grid(nx=24, ny=24, nz=24)
    fields = random_wind(grid, seed=0, magnitude=2.0)
    fields.u[0, 0, 1] = np.nan
    config = KernelConfig(grid=grid)
    runs = [simulate_kernel(config, fields, batched=batched)
            for batched in (True, False)]
    assert len(calls) == 0
    assert [a.tobytes() for a in runs[0].sources.as_tuple()] \
        == [a.tobytes() for a in runs[1].sources.as_tuple()]


@pytest.mark.parametrize(("shape", "chunk_width", "kwargs"), [
    ((6, 9, 5), 4, {}),
    ((5, 11, 6), 3, {"read_ii": 2, "enforce_ports": False}),
    ((16, 16, 16), None, {}),
], ids=["6x9x5-chunk4", "5x11x6-unpartitioned-ii2", "16-cubed"])
def test_ports_match_the_register_model(shape, chunk_width, kwargs):
    """Booking each buffer's feed on the stage's path leaves the port
    reports of the register model the checking shim feeds, and batched
    and forced-scalar runs leave the same bytes and cycles."""
    grid = Grid(*shape)
    fields = random_wind(grid, seed=2, magnitude=2.0)
    partitioned = "enforce_ports" not in kwargs
    config = KernelConfig(
        grid=grid, partitioned=partitioned,
        **({} if chunk_width is None else {"chunk_width": chunk_width}))
    observed = []
    for batched in (True, False):
        with register_model_check() as ledger:
            result = simulate_kernel(config, fields, batched=batched,
                                     **kwargs)
        assert (result.port_tracker.reports(),
                result.port_tracker.conflicts) \
            == (ledger.reports(), ledger.conflicts)
        observed.append(([a.tobytes() for a in result.sources.as_tuple()],
                         result.total_cycles))
    assert observed[0] == observed[1]


def test_an_enforced_port_conflict_raises_like_the_register_model():
    grid = Grid(nx=5, ny=11, nz=6)
    fields = random_wind(grid, seed=2, magnitude=2.0)
    config = KernelConfig(grid=grid, chunk_width=3, partitioned=False)
    messages = []
    with register_model_check(enforce=True):
        with pytest.raises(PortConflictError) as info:
            simulate_kernel(config, fields, batched=False)
    messages.append(str(info.value))
    assert any(entry.name == "feed" for entry in info.traceback)
    for batched in (True, False):
        with pytest.raises(PortConflictError) as info:
            simulate_kernel(config, fields, batched=batched)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]
