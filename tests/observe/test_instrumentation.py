"""End-to-end observability: engine, kernel sim, multi-kernel, driver."""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.distributed.driver import DistributedAdvection
from repro.distributed.topology import ProcessGrid
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel
from repro.observe import MetricRegistry, Tracer


@pytest.fixture
def grid():
    return Grid(nx=6, ny=9, nz=5)


@pytest.fixture
def fields(grid):
    return random_wind(grid, seed=17, magnitude=2.0)


@pytest.fixture
def config(grid):
    return KernelConfig(grid=grid, chunk_width=4)


class TestEngineTracing:
    def test_stage_activity_spans_cover_all_stages(self, config, fields):
        tracer = Tracer()
        simulate_kernel(config, fields, tracer=tracer)
        stage_spans = [s for s in tracer.spans if s.category == "stage"]
        tracks = {s.track for s in stage_spans}
        assert tracks == {"read_data", "shift_buffer", "replicate",
                          "advect_u", "advect_v", "advect_w", "write_data"}

    def test_span_args_carry_fires_and_stalls(self, config, fields):
        tracer = Tracer()
        result = simulate_kernel(config, fields, tracer=tracer)
        agg = result.aggregate_stats()
        spans = [s for s in tracer.spans
                 if s.track == "advect_u" and s.category == "stage"]
        assert sum(s.args["fires"] for s in spans) == agg.fires["advect_u"]

    def test_prime_and_steady_phases_split_the_shift_buffer(
            self, config, fields):
        tracer = Tracer()
        simulate_kernel(config, fields, tracer=tracer)
        phases = [s for s in tracer.spans_on("shift_buffer")
                  if s.category == "phase"]
        names = [s.name for s in phases]
        assert names.count("prime") == 3  # one per chunk
        assert names.count("steady") == 3
        prime = next(s for s in phases if s.name == "prime")
        steady = next(s for s in phases if s.name == "steady")
        assert prime.end == steady.start  # phases abut at first emission
        assert prime.duration > 0 and steady.duration > 0

    def test_chunks_tile_the_global_cycle_axis(self, config, fields):
        tracer = Tracer()
        result = simulate_kernel(config, fields, tracer=tracer)
        chunks = sorted(tracer.spans_on("kernel"), key=lambda s: s.start)
        assert [s.name for s in chunks] == ["chunk 0", "chunk 1", "chunk 2"]
        assert chunks[0].start == 0
        for left, right in zip(chunks, chunks[1:]):
            assert left.end == right.start
        assert chunks[-1].end == result.total_cycles

    def test_chunk_spans_carry_halo_overhead(self, config, fields):
        tracer = Tracer()
        simulate_kernel(config, fields, tracer=tracer)
        span = tracer.spans_on("kernel")[0]
        assert span.args["read_width"] == span.args["write_width"] + 2
        assert span.args["halo_overhead"] == pytest.approx(
            2 / span.args["read_width"], abs=1e-4)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_fast_mode_emits_fast_forward_spans(self, config, fields):
        # The deprecated alias runs batched exact: one span per window.
        tracer = Tracer()
        result = simulate_kernel(config, fields, mode="fast", tracer=tracer)
        agg = result.aggregate_stats()
        windows = [s for s in tracer.spans if s.category == "batched"]
        assert agg.batched_windows > 0
        assert len(windows) == agg.batched_windows
        assert sum(s.duration for s in windows) == agg.batched_cycles

    def test_kernel_runs_carry_strided_samples(self, config, fields):
        scalar, batched = Tracer(sample_every=33), Tracer(sample_every=33)
        simulate_kernel(config, fields, batched=False, tracer=scalar)
        result = simulate_kernel(config, fields, tracer=batched)
        assert result.aggregate_stats().batched_windows > 0
        assert batched.counters == scalar.counters
        # Each chunk run samples its own cycles 0, 33, ..., shifted to
        # where the chunk starts on the global cycle axis.
        expected, start = [], 0
        for cycles in result.chunk_cycles:
            expected += [start + c for c in range(0, cycles, 33)]
            start += cycles
        assert [c.ts for c in batched.counters
                if c.name == "fifo_occupancy"] == expected

    def test_monitor_veto_surfaces_as_instant(self, config, fields):
        tracer = Tracer(sample_every=1)
        from repro.kernel.builder import build_advection_graph
        from repro.core.coefficients import AdvectionCoefficients
        from repro.core.fields import SourceSet
        from repro.dataflow.engine import DataflowEngine

        grid = config.grid
        coeffs = AdvectionCoefficients.uniform(grid)
        out = SourceSet.zeros(grid)
        chunk = config.chunk_plan().chunks[0]
        graph = build_advection_graph(config, fields, chunk, coeffs, out)
        stats = DataflowEngine(graph, tracer=tracer).run()
        vetoes = [i for i in tracer.instants
                  if i.name == "batched execution fell back"]
        assert len(vetoes) == 1
        assert vetoes[0].args["reason"] == stats.batch_fallback_reason
        assert "tracer samples every cycle" in vetoes[0].args["reason"]

    def test_disabled_tracer_changes_nothing_and_stays_empty(
            self, config, fields):
        tracer = Tracer(enabled=False, sample_every=2)
        traced = simulate_kernel(config, fields, tracer=tracer)
        plain = simulate_kernel(config, fields)
        assert len(tracer) == 0
        assert traced.total_cycles == plain.total_cycles
        assert [s.to_dict() for s in traced.chunk_stats] \
            == [s.to_dict() for s in plain.chunk_stats]
        assert np.array_equal(traced.sources.su, plain.sources.su)

    def test_exact_and_fast_traces_agree_on_chunk_boundaries(
            self, config, fields):
        scalar_tracer, batched_tracer = Tracer(), Tracer()
        simulate_kernel(config, fields, batched=False, tracer=scalar_tracer)
        result = simulate_kernel(config, fields, tracer=batched_tracer)
        assert result.aggregate_stats().batched_windows > 0
        scalar_chunks = [(s.start, s.end)
                         for s in scalar_tracer.spans_on("kernel")]
        batched_chunks = [(s.start, s.end)
                          for s in batched_tracer.spans_on("kernel")]
        assert scalar_chunks == batched_chunks


class TestEngineMetrics:
    def test_registry_matches_aggregate_stats(self, config, fields):
        registry = MetricRegistry()
        result = simulate_kernel(config, fields, metrics=registry)
        agg = result.aggregate_stats()
        assert registry.counter("engine_cycles").value() \
            == result.total_cycles
        for stage, fires in agg.fires.items():
            assert registry.counter("stage_fires").value(stage=stage) \
                == fires
        assert registry.counter("kernel_chunks").value() == 3
        assert registry.counter("kernel_chunk_retries").value() == 0
        # Two seams, each re-reading 2 Y planes of (nx+2) * nz cells.
        grid = config.grid
        assert registry.counter("kernel_halo_read_cells").value() \
            == 2 * 2 * (grid.nx + 2) * grid.nz

    def test_throughput_histogram_sees_every_stage(self, config, fields):
        registry = MetricRegistry()
        simulate_kernel(config, fields, metrics=registry)
        hist = registry.histogram("stage_throughput")
        value = hist.value(stage="advect_u")
        assert value.total == 3  # one observation per chunk run
        assert 0 < value.mean <= 1.0

    def test_disabled_registry_stays_empty(self, config, fields):
        registry = MetricRegistry(enabled=False)
        simulate_kernel(config, fields, metrics=registry)
        assert registry.counter("engine_cycles").value() == 0


class TestMultiKernelObservability:
    def test_replica_lanes_and_arbiter_metrics(self, grid, fields, config):
        tracer = Tracer()
        registry = MetricRegistry()
        result = simulate_kernel(
            config, fields, num_kernels=2, tracer=tracer, metrics=registry)
        tracks = set(tracer.tracks())
        assert "k0.advect_u" in tracks and "k1.advect_u" in tracks
        chunk_spans = tracer.spans_on("kernel")
        assert chunk_spans[-1].end == result.total_cycles
        assert registry.counter("arbiter_grants").value() \
            == result.arbiter.grants
        assert registry.gauge("read_starvation_fraction").value() \
            == result.read_starvation_fraction


class TestDistributedTracing:
    def test_per_rank_lanes_on_modelled_seconds(self, grid, fields):
        tracer = Tracer()
        topology = ProcessGrid(grid, 2, 1)
        driver = DistributedAdvection(topology, tracer=tracer)
        driver.compute(fields)
        report = driver.last_report
        assert {"rank0", "rank1", "comm", "driver"} <= set(tracer.tracks())
        (comm,) = tracer.spans_on("comm")
        assert comm.duration == pytest.approx(report.comm_seconds)
        (step,) = tracer.spans_on("driver")
        assert step.duration == pytest.approx(report.total_seconds)
        for rank in ("rank0", "rank1"):
            (span,) = tracer.spans_on(rank)
            assert span.start == pytest.approx(report.comm_seconds)

    def test_steps_lay_end_to_end(self, grid, fields):
        tracer = Tracer()
        driver = DistributedAdvection(ProcessGrid(grid, 2, 1),
                                      tracer=tracer)
        driver.compute(fields)
        driver.compute(fields)
        steps = tracer.spans_on("driver")
        assert len(steps) == 2
        assert steps[1].start == pytest.approx(steps[0].end)
