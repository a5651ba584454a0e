"""The lazy data path: scalar ticks carry runs of the blocks, not data.

A fault-free run of either machine hands runs of the streamed blocks
from the shift buffer to the write stage, which evaluates each stored
run once, with its compute stage's window forms on
:class:`~repro.shiftbuffer.window.WindowRun` views, when the engine run
ends.  Forced-scalar runs take the same path.  These tests pin that the
bytes are the reference's on both paths, that no window is cut and no
form sees a single window while the engine runs, and that the outputs
are complete when :meth:`DataflowEngine.run` returns, also for a graph
built by hand.  The register model, which no engine stage runs, is
the oracle of ``tests/kernel/test_batched_regimes.py``, on fault-free
runs and after a dropped word.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import SourceSet
from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.dataflow.engine import ControlRecord, DataflowEngine
from repro.kernel import compute
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.generic import build_stencil_graph, run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.scenarios.conformance import STATS_BATCH_KEYS
from repro.scenarios.kernels import BuoyancyKernel, DiffusionKernel
from repro.shiftbuffer.buffer3d import ShiftBuffer3D

STENCIL_KERNELS = (DiffusionKernel(nu=1.5), BuoyancyKernel())
FORMS = ("advect_u", "advect_v", "advect_w")


def without_batching(stats):
    return {key: value for key, value in stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}


# -- (a) both paths equal the reference -------------------------------------


@st.composite
def advection_runs(draw):
    grid = Grid(nx=draw(st.integers(1, 7)), ny=draw(st.integers(1, 9)),
                nz=draw(st.integers(3, 7)))
    chunk_width = draw(st.one_of(st.none(), st.integers(2, max(grid.ny, 2))))
    read_ii = draw(st.sampled_from((1, 2, 3)))
    num_kernels = draw(st.integers(1, 3))
    return grid, chunk_width, read_ii, num_kernels


@settings(max_examples=40, deadline=None)
@given(advection_runs(), st.integers(0, 2**16))
def test_advection_paths_equal_the_reference(run, seed):
    grid, chunk_width, read_ii, num_kernels = run
    config = (KernelConfig(grid=grid) if chunk_width is None
              else KernelConfig(grid=grid, chunk_width=chunk_width))
    fields = random_wind(grid, seed=seed, magnitude=2.0)
    reference = advect_reference(fields, AdvectionCoefficients.uniform(grid))
    scalar, batched = (
        simulate_kernel(config, fields, batched=batched, read_ii=read_ii,
                        num_kernels=num_kernels)
        for batched in (False, True))
    assert scalar.sources.same_bits(reference)
    assert batched.sources.same_bits(reference)
    assert scalar.total_cycles == batched.total_cycles
    assert [without_batching(stats) for stats in scalar.chunk_stats] \
        == [without_batching(stats) for stats in batched.chunk_stats]


@settings(max_examples=30, deadline=None)
@given(kernel=st.sampled_from(STENCIL_KERNELS),
       grid=st.builds(Grid, nx=st.integers(1, 6), ny=st.integers(1, 6),
                      nz=st.integers(3, 10)),
       stream_depth=st.integers(3, 6), seed=st.integers(0, 2**16))
def test_stencil_paths_equal_the_reference(kernel, grid, stream_depth,
                                           seed):
    fields = random_wind(grid, seed=seed, magnitude=2.0)
    reference = kernel.reference(fields)
    interior, boundary = kernel.window_fns(grid)
    for name, want in (("u", reference.su), ("w", reference.sw)):
        runs = []
        for batched in (False, True):
            out = np.zeros(grid.interior_shape)
            stats = run_stencil_kernel(getattr(fields, name), interior,
                                       boundary, out, batched=batched,
                                       stream_depth=stream_depth)
            assert out.tobytes() == want.tobytes(), (name, batched)
            runs.append(without_batching(stats))
        assert runs[0] == runs[1]


# -- (b) no window is cut, every form sees runs ---------------------------


class DataPath:
    """Counts, while an engine run is in progress, the windows
    :meth:`ShiftBuffer3D.window_at` cuts and the argument type of every
    window form call."""

    def __init__(self, monkeypatch):
        self.running = False
        self.cuts = 0
        self.calls = set()
        run = DataflowEngine.run

        def counted_run(engine):
            self.running = True
            try:
                return run(engine)
            finally:
                self.running = False

        monkeypatch.setattr(DataflowEngine, "run", counted_run)
        window_at = ShiftBuffer3D.window_at

        def counted_window_at(buffer, index, backing):
            self.cuts += self.running
            return window_at(buffer, index, backing)

        monkeypatch.setattr(ShiftBuffer3D, "window_at", counted_window_at)
        # The advect stages read the forms when they are built.
        for name in FORMS:
            monkeypatch.setattr(compute, name,
                                self.spy(name, getattr(compute, name)))

    def spy(self, name, fn):
        def recorded(window, *args, **kwargs):
            if self.running:
                self.calls.add((name, type(window).__name__, window.top,
                                kwargs.get("top")))
            return fn(window, *args, **kwargs)
        return recorded


def test_fault_free_runs_cut_no_window(monkeypatch):
    """Batched, forced scalar and replayed runs of both machines cut no
    :class:`StencilWindow` and call every window form on
    :class:`WindowRun` views only, full and top."""
    path = DataPath(monkeypatch)
    grid = Grid(nx=6, ny=9, nz=6)
    fields = random_wind(grid, seed=5, magnitude=2.0)
    reference = advect_reference(fields, AdvectionCoefficients.uniform(grid))
    config = KernelConfig(grid=grid, chunk_width=4)
    record = ControlRecord()
    for batched, run_record in ((True, record), (True, record),
                                (False, None)):
        result = simulate_kernel(config, fields, batched=batched,
                                 record=run_record)
        assert result.sources.same_bits(reference)
    assert path.cuts == 0
    assert path.calls == {(name, "WindowRun", top, None) for name in FORMS
                          for top in (False, True)}
    for kernel in STENCIL_KERNELS:
        path.calls.clear()
        interior, boundary = kernel.window_fns(grid)
        interior = path.spy("interior", interior)
        boundary = path.spy("boundary", boundary)
        outs = []
        for batched in (True, False):
            out = np.zeros(grid.interior_shape)
            run_stencil_kernel(fields.v, interior, boundary, out,
                               batched=batched)
            outs.append(out.tobytes())
        assert outs[0] == outs[1] == kernel.reference(fields).sv.tobytes()
        assert path.cuts == 0
        assert path.calls == {("interior", "WindowRun", False, None),
                              ("boundary", "WindowRun", False, False),
                              ("boundary", "WindowRun", False, True)}


# -- (c) outputs are complete when the engine returns -----------------------


def test_hand_built_graphs_are_complete_when_run_returns():
    """Each engine run of a graph wired with the builders leaves its
    region of the outputs complete; nothing is written afterwards."""
    grid = Grid(nx=5, ny=8, nz=5)
    fields = random_wind(grid, seed=9, magnitude=2.0)
    coeffs = AdvectionCoefficients.uniform(grid)
    reference = advect_reference(fields, coeffs)
    config = KernelConfig(grid=grid, chunk_width=3)
    for batched in (True, False):
        out = SourceSet.zeros(grid)
        for chunk in config.chunk_plan().chunks:
            graph = build_advection_graph(config, fields, chunk, coeffs, out)
            DataflowEngine(graph, batched=batched).run()
            columns = slice(chunk.write_start - 1, chunk.write_stop - 1)
            for got, want in zip(out.as_tuple(), reference.as_tuple()):
                assert got[:, columns].tobytes() \
                    == want[:, columns].tobytes()
    kernel = DiffusionKernel()
    interior, boundary = kernel.window_fns(grid)
    for batched in (True, False):
        out = np.zeros(grid.interior_shape)
        graph = build_stencil_graph(fields.u, interior, boundary, out)
        DataflowEngine(graph, batched=batched).run()
        assert out.tobytes() == kernel.reference(fields).su.tobytes()
