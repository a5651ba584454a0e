"""Search strategies: determinism, budget discipline, termination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.errors import TuneError
from repro.hardware.devices import ALVEO_U280
from repro.tune.cost import CostModel, Evaluation
from repro.tune.space import ParameterSpace
from repro.tune.strategies import (STRATEGIES, AnnealingSearch,
                                   ExhaustiveSearch, GreedySearch,
                                   _first_unseen, _Tracker, make_strategy)

GRID = Grid(nx=16, ny=64, nz=16)


def space() -> ParameterSpace:
    return ParameterSpace(
        chunk_widths=(16, 32, 64),
        num_kernels=(1, 2, 3, 4),
        stream_depths=(2, 4),
        precisions=("float64",),
        memories=("hbm2",),
        x_chunks=(8, 16),
        overlapped=(False, True),
    )


@pytest.fixture(scope="module")
def evaluate():
    return CostModel(ALVEO_U280, GRID).evaluate


def run(strategy, evaluate, *, budget, seed=0):
    return strategy.run(space(), evaluate, budget=budget, seed=seed,
                        objective="kernel")


class TestRegistry:
    def test_known_names(self):
        assert set(STRATEGIES) == {"grid", "greedy", "anneal"}
        for name, cls in STRATEGIES.items():
            assert make_strategy(name).name == name
            assert isinstance(make_strategy(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(TuneError, match="unknown search strategy"):
            make_strategy("bayesian")


class TestBudgets:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_budget_bounds_distinct_evaluations(self, name, evaluate):
        evals = run(make_strategy(name), evaluate, budget=10, seed=3)
        keys = [e.point.key() for e in evals]
        assert len(evals) <= 10
        assert len(keys) == len(set(keys)), "budget must count distinct"

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_over_budget_terminates_at_full_coverage(self, name, evaluate):
        evals = run(make_strategy(name), evaluate, budget=10_000, seed=1)
        assert len(evals) == space().size

    def test_budget_below_one_rejected(self, evaluate):
        with pytest.raises(TuneError, match="budget"):
            run(ExhaustiveSearch(), evaluate, budget=0)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_same_seed_same_trajectory(self, name, evaluate):
        first = run(make_strategy(name), evaluate, budget=40, seed=7)
        second = run(make_strategy(name), evaluate, budget=40, seed=7)
        assert ([e.point.key() for e in first]
                == [e.point.key() for e in second])

    def test_grid_ignores_the_seed(self, evaluate):
        listed = [p.key() for p in space().points()][:25]
        walked = [e.point.key() for e in
                  run(ExhaustiveSearch(), evaluate, budget=25, seed=99)]
        assert walked == listed

    def test_seeds_change_the_stochastic_trajectories(self, evaluate):
        a = run(AnnealingSearch(), evaluate, budget=30, seed=1)
        b = run(AnnealingSearch(), evaluate, budget=30, seed=2)
        assert ([e.point.key() for e in a] != [e.point.key() for e in b])


class TestSearchQuality:
    def test_greedy_finds_the_exhaustive_optimum_here(self, evaluate):
        full = run(ExhaustiveSearch(), evaluate, budget=10_000)
        optimum = max(e.sort_key("kernel") for e in full)
        greedy = run(GreedySearch(), evaluate, budget=60, seed=0)
        assert max(e.sort_key("kernel") for e in greedy) == optimum

    def test_anneal_finds_the_exhaustive_optimum_here(self, evaluate):
        full = run(ExhaustiveSearch(), evaluate, budget=10_000)
        optimum = max(e.sort_key("kernel") for e in full)
        anneal = run(AnnealingSearch(), evaluate, budget=96, seed=7)
        assert max(e.sort_key("kernel") for e in anneal) == optimum

    def test_anneal_survives_an_entirely_infeasible_space(self, evaluate):
        cramped = ParameterSpace(
            chunk_widths=(16,), num_kernels=(30, 40), stream_depths=(2,),
            precisions=("float64",), memories=("hbm2",), x_chunks=(8,),
            overlapped=(True,),
        )
        evals = AnnealingSearch().run(cramped, evaluate, budget=50, seed=0,
                                      objective="kernel")
        assert evals
        assert not any(e.feasible for e in evals)


class TestFirstUnseen:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_cursor_matches_a_full_rescan(self, data):
        """After any evaluation order, the cursor answers as a rescan."""
        points = list(space().points())
        order = data.draw(st.permutations(points))
        tracker = _Tracker(lambda p: Evaluation(point=p, feasible=False),
                           budget=len(points), objective="kernel")

        def rescan():
            return next((p for p in points if p.key() not in tracker.seen),
                        None)

        for point in order:
            for _ in range(data.draw(st.integers(0, 2))):
                assert _first_unseen(space(), tracker) == rescan()
            tracker.evaluate(point)
        assert _first_unseen(space(), tracker) is None
        assert _first_unseen(space(), tracker) is None
