"""Batched windows cover the shift buffer's prime, steady and last regimes.

The shift-buffer stage summarises its streaming position per control
regime (prime planes, steady planes, final plane), so the batched engine
batches the fill ramp and the final plane as well as the steady state.
One oracle judges every run: forced scalar ticking (``batched=False``).
A batched run must match it on the aggregate statistics (minus the
engine's own batching accounting), the source arrays byte for byte, and
the memory-port reports.
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


class TestScalarRemainder:
    """Only one steady plane (the period proof) plus short edges tick
    scalar; the prime planes and the final plane batch."""

    def check(self, n):
        grid = Grid(nx=n, ny=n, nz=n)
        config = KernelConfig(grid=grid)
        result = run_against_scalar(config,
                                    random_wind(grid, seed=0, magnitude=2.0))
        agg = result.aggregate_stats()
        (chunk,) = config.chunk_plan().chunks
        steady_plane = chunk.read_width * grid.nz  # feeds, one per cycle
        assert agg.batched_windows == 3  # prime, steady, last plane
        assert result.total_cycles - agg.batched_cycles < 2 * steady_plane

    def test_16_cubed(self):
        self.check(16)

    def test_32_cubed(self):
        self.check(32)


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
    assert result.batched_windows == 3 * len(chunks)
    assert result.total_cycles - result.batched_cycles \
        < 2 * steady_plane * len(chunks)
