"""Cost model: lint gating, precision scaling, pricing consistency."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analyze.report as report_module
import repro.lint.rules_analyze as rules_analyze
import repro.runtime.overlap as overlap_module
import repro.runtime.session as session_module
import repro.tune.cost as cost_module
from repro.analyze.report import analyze_graph
from repro.core.grid import Grid, GridDecomposition
from repro.errors import ConfigurationError, TuneError
from repro.hardware.device import FPGADevice
from repro.hardware.devices import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.lint.runner import lint_kernel
from repro.runtime.session import AdvectionSession
from repro.tune.cost import CostModel, Evaluation, OBJECTIVES
from repro.tune.space import ParameterSpace, TunePoint

GRID = Grid(nx=32, ny=64, nz=32)


def point(**overrides) -> TunePoint:
    values = dict(chunk_width=32, num_kernels=2, stream_depth=4,
                  precision="float64", memory="hbm2", x_chunks=16,
                  overlapped=True)
    values.update(overrides)
    return TunePoint(**values)


@pytest.fixture(scope="module")
def model() -> CostModel:
    return CostModel(ALVEO_U280, GRID)


class TestLintGate:
    def test_sane_point_passes(self, model):
        assert model.lint_gate(point()) == ()

    def test_overcommitted_replicas_rejected(self, model):
        codes = model.lint_gate(point(num_kernels=32))
        assert codes
        assert any(code.startswith("RS") for code in codes)

    def test_unknown_memory_rejected(self, model):
        assert model.lint_gate(point(memory="hbm3")) == ("TN001",)

    def test_gate_matches_evaluate_feasibility(self, model):
        for candidate in (point(), point(num_kernels=32),
                          point(memory="hbm3")):
            assert (model.lint_gate(candidate) == ()) == (
                model.evaluate(candidate).feasible)


class TestPrecisionScaling:
    def test_float64_scaling_is_identity(self, model):
        assert model.describe()["float64_identity"] is True

    def test_narrow_formats_shrink_the_footprint_once(self, model):
        wide = model._resources(point())
        narrow = model._resources(point(precision="float32"))
        assert narrow.bram_bytes < wide.bram_bytes
        # Buffers hold the same words at half the width: the footprint
        # must shrink by about 2x, not 4x (which would mean the word
        # width was applied twice).
        ratio = wide.bram_bytes / narrow.bram_bytes
        assert 1.5 < ratio < 2.5

    def test_stream_depth_is_a_live_resource_axis(self, model):
        shallow = model._resources(point(stream_depth=2))
        deep = model._resources(point(stream_depth=8))
        assert deep.bram_bytes > shallow.bram_bytes


class TestEvaluate:
    def test_feasible_point_is_fully_priced(self, model):
        ev = model.evaluate(point())
        assert ev.feasible
        assert ev.kernel_gflops > 0
        assert ev.end_to_end_gflops > 0
        assert ev.kernel_seconds > 0
        assert ev.runtime_seconds > ev.kernel_seconds / point().num_kernels
        assert ev.watts > 0
        assert 0 < ev.utilisation <= 1
        assert ev.clock_mhz == 300.0
        assert ev.analytic_cycles > 0
        assert set(ev.utilisation_by_axis) == {
            "bram_bytes", "dsp", "luts", "registers", "uram_bytes"}

    def test_infeasible_point_carries_codes_and_reason(self, model):
        ev = model.evaluate(point(num_kernels=32))
        assert not ev.feasible
        assert ev.reject_codes
        assert "lint gate" in ev.reject_reason
        assert ev.kernel_gflops == 0.0

    def test_more_replicas_cost_more_fabric_and_watts(self, model):
        one = model.evaluate(point(num_kernels=1))
        four = model.evaluate(point(num_kernels=4))
        assert four.utilisation > one.utilisation
        assert four.watts > one.watts
        assert four.kernel_gflops > one.kernel_gflops

    def test_stratix_clock_degradation_applied(self):
        model = CostModel(STRATIX10_GX2800, GRID)
        five = model.evaluate(point(num_kernels=5, memory="ddr"))
        assert five.feasible
        assert five.clock_mhz == 250.0


class TestObjectives:
    def test_every_objective_is_finite_when_feasible(self, model):
        ev = model.evaluate(point())
        for name in OBJECTIVES:
            assert ev.objective(name) > 0

    def test_infeasible_scores_minus_infinity(self, model):
        ev = model.evaluate(point(memory="hbm3"))
        for name in OBJECTIVES:
            assert ev.objective(name) == float("-inf")

    def test_unknown_objective_rejected(self, model):
        with pytest.raises(TuneError, match="unknown objective"):
            model.evaluate(point()).objective("latency")

    def test_sort_key_is_a_total_order(self, model):
        evals = [model.evaluate(point(num_kernels=n)) for n in (1, 2, 3)]
        keys = [e.sort_key("kernel") for e in evals]
        assert sorted(keys) == sorted(set(keys))

    def test_to_dict_rounds_floats(self, model):
        data = model.evaluate(point()).to_dict()
        for key in ("kernel_gflops", "runtime_seconds", "utilisation"):
            assert data[key] == round(data[key], 6)


class TestEvaluationDataclass:
    def test_default_infeasible_shape(self):
        ev = Evaluation(point=point(), feasible=False,
                        reject_codes=("RS201",), reject_reason="no fit")
        data = ev.to_dict()
        assert data["feasible"] is False
        assert data["reject_codes"] == ["RS201"]
        assert data["key"] == point().key()


class TestSubModelMemo:
    """One model per search prices every point as a fresh model would."""

    @settings(max_examples=4, deadline=None)
    @given(
        device=st.sampled_from([ALVEO_U280, STRATIX10_GX2800]),
        grid=st.builds(Grid, nx=st.integers(2, 5), ny=st.integers(2, 9),
                       nz=st.integers(3, 4)),
        wide_precision=st.booleans(),
        flops_scale=st.sampled_from([1.0, 2.5]),
        data=st.data(),
    )
    def test_shared_model_matches_a_fresh_model_per_point(
            self, device, grid, wide_precision, flops_scale, data):
        space = ParameterSpace.derive(device, grid,
                                      wide_precision=wide_precision)
        # One replica past the fabric fit puts lint-rejected points in
        # the mix (every point of a derived space is feasible).  Grids
        # this narrow split into nx // 2 chunks at every x_chunks value,
        # so one value covers that axis at a third of the oracle's cost.
        space = dataclasses.replace(
            space, num_kernels=space.num_kernels
            + (space.num_kernels[-1] + 1,),
            x_chunks=space.x_chunks[:1])
        order = data.draw(st.permutations(list(space.points())))
        shared = CostModel(device, grid, flops_scale=flops_scale)
        for point in order:
            fresh = CostModel(device, grid, flops_scale=flops_scale)
            assert (shared.evaluate(point).to_dict()
                    == fresh.evaluate(point).to_dict())

    @settings(max_examples=5, deadline=None)
    @given(device=st.sampled_from([ALVEO_U280, STRATIX10_GX2800]),
           data=st.data())
    def test_shared_model_matches_a_fresh_model_on_every_dropped_input(
            self, device, data):
        """Each memo key leaves out inputs its sub-model never reads;
        points that differ only there must still price alike.

        The space holds both schedules (a sequential run never reads
        the X chunk count), an X chunk count the session rejects (0)
        beside two it accepts, a replica count past the fabric fit, two
        depths and two precisions, evaluated in drawn orders.
        """
        grid = Grid(6, 16, 4)
        fit = device.max_kernels(KernelConfig(grid=grid, chunk_width=8))
        space = ParameterSpace(
            chunk_widths=(8,), num_kernels=(1, fit + 1),
            stream_depths=(2, 4), precisions=("float64", "float32"),
            memories=("ddr",), x_chunks=(0, 1, 3),
            overlapped=(False, True))
        order = data.draw(st.permutations(list(space.points())))
        shared = CostModel(device, grid)
        for point in order:
            fresh = CostModel(device, grid)
            assert (shared.evaluate(point).to_dict()
                    == fresh.evaluate(point).to_dict())

    def test_each_sub_model_runs_once_per_distinct_input(self, monkeypatch):
        grid = Grid(16, 64, 16)
        points = list(ParameterSpace.derive(ALVEO_U280, grid).points())
        calls = {"lint_kernel": 0, "lint_kernel replicas": 0,
                 "analyze_graph": 0, "build_structural_graph": 0,
                 "run": 0, "invocation": 0, "interpret": 0,
                 "CommandQueue": 0, "grid_flops": 0, "allocate_buffers": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                # A lint pass restricted to the replica-count rules is
                # counted apart from the full pass.
                calls[name + (" replicas" if kwargs.get("select")
                              else "")] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("lint_kernel", "analyze_graph"):
            counted(cost_module, name)
        # The SA lint rules would prove the graph themselves if the
        # model did not hand them its proof; count those calls too.
        counted(rules_analyze, "analyze_graph")
        counted(cost_module, "build_structural_graph")
        counted(AdvectionSession, "run")
        counted(FPGADevice, "invocation")
        # Below the session runs: the proof's interpretations, the
        # schedule queues built, the FLOP count and the capacity check.
        counted(report_module, "interpret")
        counted(overlap_module, "CommandQueue")
        counted(session_module, "grid_flops")
        counted(AdvectionSession, "allocate_buffers")
        model = CostModel(ALVEO_U280, grid)
        assert all(model.evaluate(p).feasible for p in points)
        runs = {dataclasses.replace(
            p, stream_depth=2, x_chunks=p.x_chunks if p.overlapped else 0)
            for p in points}
        shapes = {len(GridDecomposition(grid, max(1, min(
            p.x_chunks, grid.nx // 2))).bounds) if p.overlapped else 0
            for p in points}
        assert calls == {
            "lint_kernel": len({p.config(grid) for p in points}),
            "lint_kernel replicas": len({(p.config(grid), p.num_kernels)
                                         for p in points}),
            "analyze_graph": len({p.stream_depth for p in points}),
            "build_structural_graph": len({p.stream_depth for p in points}),
            "run": len(runs),
            # One price per distinct input, shared through the session
            # memo: the model's own, which its sequential runs price
            # again, and one sub-grid per (config, replicas, memory) for
            # the overlapped runs, since nx // 2 = 8 caps every X chunk
            # count here and splits nx=16 into chunks of width 2.
            "invocation": 2 * len({(p.chunk_width, p.word_bytes,
                                    p.num_kernels, p.memory)
                                   for p in points}),
            # One interpretation per proof: no FIFO of the structural
            # graph fills at any depth the space offers.
            "interpret": len({p.stream_depth for p in points}),
            # Sequential, and overlapped over each distinct chunk count
            # (nx // 2 = 8 caps every X chunk count here).
            "CommandQueue": len(shapes),
            "grid_flops": 1,
            "allocate_buffers": len({(p.word_bytes, p.memory)
                                     for p in points}),
        }
        assert calls == {"lint_kernel": 12, "lint_kernel replicas": 72,
                         "analyze_graph": 3, "build_structural_graph": 3,
                         "run": 192, "invocation": 96, "interpret": 3,
                         "CommandQueue": 2, "grid_flops": 1,
                         "allocate_buffers": 2}


class TestLintSplit:
    """The gate lints each config once without a replica count, then
    runs only the rules that read the count; together they must report
    what one full ``lint_kernel(config, device, num_kernels)`` run does."""

    @settings(max_examples=20, deadline=None)
    @given(device=st.sampled_from([ALVEO_U280, STRATIX10_GX2800]),
           ny=st.integers(4, 40), chunk_width=st.integers(1, 48),
           stream_depth=st.integers(2, 8), data=st.data())
    def test_union_of_the_two_passes_is_the_full_run(
            self, device, ny, chunk_width, stream_depth, data):
        grid = Grid(4, ny, 4)
        config = KernelConfig(grid=grid, chunk_width=chunk_width,
                              stream_depth=stream_depth)
        graph = build_structural_graph(config)
        analysis = analyze_graph(graph)
        model = CostModel(device, grid)
        fit = device.max_kernels(config)
        replicas = data.draw(st.permutations(range(1, fit + 3)))
        for num_kernels in replicas:
            full = lint_kernel(config, device, num_kernels, graph=graph,
                               analysis=analysis)
            gated = model.lint_gate(point(
                chunk_width=chunk_width, num_kernels=num_kernels,
                stream_depth=stream_depth, memory="ddr"))
            assert gated == tuple(sorted({d.code for d in full.errors}))
        assert "RS201" in model.lint_gate(point(
            chunk_width=chunk_width, num_kernels=fit + 1,
            stream_depth=stream_depth, memory="ddr"))

    @pytest.mark.parametrize("num_kernels", [0, -1])
    def test_replica_count_below_one_is_rejected(self, model, num_kernels):
        with pytest.raises(ConfigurationError, match="num_kernels"):
            lint_kernel(point().config(GRID), ALVEO_U280, num_kernels)
        with pytest.raises(ConfigurationError, match="num_kernels"):
            model.lint_gate(point(num_kernels=num_kernels))
