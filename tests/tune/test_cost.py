"""Cost model: lint gating, precision scaling, pricing consistency."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lint.rules_analyze as rules_analyze
import repro.tune.cost as cost_module
from repro.core.grid import Grid
from repro.errors import TuneError
from repro.hardware.devices import ALVEO_U280, STRATIX10_GX2800
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

    def test_each_sub_model_runs_once_per_distinct_input(self, monkeypatch):
        grid = Grid(16, 64, 16)
        points = list(ParameterSpace.derive(ALVEO_U280, grid).points())
        calls = {"lint_kernel": 0, "static_kernel_cycles": 0,
                 "analyze_graph": 0, "run": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("lint_kernel", "static_kernel_cycles",
                     "analyze_graph"):
            counted(cost_module, name)
        # The SA lint rules would prove the graph themselves if the
        # model did not hand them its proof; count those calls too.
        counted(rules_analyze, "analyze_graph")
        counted(AdvectionSession, "run")
        model = CostModel(ALVEO_U280, grid)
        assert all(model.evaluate(p).feasible for p in points)
        assert calls == {
            "lint_kernel": len({(p.config(grid), p.num_kernels)
                                for p in points}),
            "static_kernel_cycles": len({p.config(grid) for p in points}),
            "analyze_graph": len({p.stream_depth for p in points}),
            "run": len({dataclasses.replace(p, stream_depth=2)
                        for p in points}),
        }
        assert calls == {"lint_kernel": 72, "static_kernel_cycles": 12,
                         "analyze_graph": 3, "run": 288}
