"""Batched windows cover the shift buffer's outer and inner regimes.

The shift-buffer stage summarises its streaming position per control
regime: an outer key (prime planes, then one-plane periods) and an inner
key (one-column periods inside a plane's emitting rows).  The batched
engine hunts both, so it batches the fill ramp, the steady planes, and
the emitting columns of the plane that proves the plane period and of
the final plane.  One oracle judges every run: forced scalar ticking
(``batched=False``).  A batched run must match it on the aggregate
statistics (minus the engine's own batching accounting), the source
arrays byte for byte, and the memory-port reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import SourceSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import DataflowEngine
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.multi_simulate import simulate_multi_kernel
from repro.kernel.simulate import simulate_kernel
from repro.observe import Tracer


def _comparable(result):
    stats = result.aggregate_stats().to_dict()
    for key in ("batched_windows", "batched_cycles",
                "batch_fallback_reason"):
        stats.pop(key)
    return (stats,
            [array.tobytes() for array in result.sources.as_tuple()],
            result.port_tracker.reports())


def run_against_scalar(config, fields, **kwargs):
    """Run batched and forced scalar; assert they agree; return batched."""
    scalar = simulate_kernel(config, fields, batched=False, **kwargs)
    batched = simulate_kernel(config, fields, batched=True, **kwargs)
    assert _comparable(batched) == _comparable(scalar)
    assert batched.sources.same_bits(scalar.sources)
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
    period 1), the proving plane's emitting columns (inner, one column),
    the steady planes (outer, one plane) and the final plane's emitting
    columns (inner, one column)."""
    grid = Grid(nx=16, ny=16, nz=16)
    tracer = Tracer()
    result = simulate_kernel(KernelConfig(grid=grid),
                             random_wind(grid, seed=0, magnitude=2.0),
                             tracer=tracer)
    windows = [span for span in tracer.spans if span.category == "batched"]
    assert [(span.args["level"], span.args["period"]) for span in windows] \
        == [("outer", 1), ("inner", 16), ("outer", 288), ("inner", 16)]
    assert [span.end - span.start for span in windows] \
        == [575, 208, 4032, 192]
    assert sum(span.end - span.start for span in windows) \
        == result.aggregate_stats().batched_cycles


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
    scalar = simulate_multi_kernel(config, fields, num_kernels=2,
                                   batched=False)
    result = simulate_multi_kernel(config, fields, num_kernels=2)
    assert result.total_cycles == scalar.total_cycles
    assert (result.arbiter.grants, result.arbiter.denials) \
        == (scalar.arbiter.grants, scalar.arbiter.denials)
    assert [a.tobytes() for a in result.sources.as_tuple()] \
        == [a.tobytes() for a in scalar.sources.as_tuple()]
    assert scalar.batched_windows == scalar.batched_cycles == 0
    chunks = config.chunk_plan().chunks
    steady_plane = chunks[0].read_width * grid.nz
    assert result.batch_fallback_reason is None
    assert result.total_cycles - result.batched_cycles \
        < steady_plane * len(chunks)
