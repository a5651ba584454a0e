"""Pluggable seeded search strategies over a :class:`ParameterSpace`.

Three strategies, one contract: given the space, an ``evaluate``
callable, an evaluation budget and a seed, return every evaluation
performed.  All randomness flows through one ``random.Random(seed)``
instance and derives choices exclusively from ``rng.random()`` (not the
higher-level helpers, whose algorithms have changed across Python
versions), so a (strategy, seed, budget, space) tuple is reproducible
byte for byte.

* :class:`ExhaustiveSearch` walks the whole grid in canonical order —
  exact within budget, exponential in axes.
* :class:`GreedySearch` hill-climbs single-axis neighbour moves from
  seeded random restarts — cheap, good on the mostly-monotone axes of
  this model (more replicas help until the clock/bandwidth knee).
* :class:`AnnealingSearch` is simulated annealing with a geometric
  temperature schedule — occasionally accepts downhill moves, so it
  crosses the infeasible ridges (e.g. chunk widths where one fewer
  kernel fits) that stop a greedy climber.
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

from repro.errors import TuneError
from repro.tune.cost import Evaluation
from repro.tune.space import ParameterSpace, TunePoint

__all__ = ["SearchStrategy", "ExhaustiveSearch", "GreedySearch",
           "AnnealingSearch", "STRATEGIES", "make_strategy"]

EvaluateFn = Callable[[TunePoint], Evaluation]


class SearchStrategy(Protocol):
    """The strategy contract (structural typing keeps plugins trivial)."""

    name: str

    def run(self, space: ParameterSpace, evaluate: EvaluateFn, *,
            budget: int, seed: int,
            objective: str) -> list[Evaluation]: ...


class _Rng:
    """Deterministic uniform source pinned to ``random.random()`` only."""

    def __init__(self, seed: int) -> None:
        import random

        self._rng = random.Random(seed)

    def uniform(self) -> float:
        return self._rng.random()

    def index(self, length: int) -> int:
        """A uniform index into a sequence of ``length`` items."""
        if length < 1:
            raise TuneError("cannot draw from an empty sequence")
        return min(int(self.uniform() * length), length - 1)




class _Tracker:
    """Shared evaluate-once bookkeeping for the iterative strategies.

    Points are named by their index in the space (``space.point_at``):
    a point is built only when it is evaluated, and its evaluation's
    sort key is computed once.
    """

    def __init__(self, space: ParameterSpace, evaluate: EvaluateFn,
                 budget: int, objective: str) -> None:
        if budget < 1:
            raise TuneError(f"budget must be >= 1, got {budget}")
        self._space = space
        self._evaluate = evaluate
        self._budget = budget
        self._objective = objective
        #: point index -> its evaluation.
        self.seen: dict[int, Evaluation] = {}
        self.order: list[Evaluation] = []
        #: point index -> its evaluation's ``sort_key(objective)``.
        self._keys: dict[int, tuple] = {}
        #: Canonical index below which every point is in ``seen``
        #: (see :func:`_first_unseen`).
        self.cursor = 0

    @property
    def exhausted(self) -> bool:
        return len(self.order) >= self._budget

    def evaluate(self, index: int) -> Evaluation | None:
        """Evaluate (once) within budget; None when the budget is spent.

        Revisiting an already-evaluated point costs nothing — the
        budget counts distinct evaluations, matching what the cache
        makes free in practice.
        """
        if index in self.seen:
            return self.seen[index]
        if self.exhausted:
            return None
        evaluation = self._evaluate(self._space.point_at(index))
        self.seen[index] = evaluation
        self._keys[index] = evaluation.sort_key(self._objective)
        self.order.append(evaluation)
        return evaluation

    def score(self, index: int) -> float:
        """The objective of the evaluated point at ``index``."""
        return self._keys[index][0]

    def better(self, a: int, b: int) -> bool:
        """True when evaluated point ``a`` ranks strictly above ``b``."""
        return self._keys[a] > self._keys[b]


def _first_unseen(space: ParameterSpace, tracker: _Tracker) -> int | None:
    """The canonically-first point index the tracker has not evaluated.

    Revisits are free, so a search stuck in an already-explored
    neighbourhood makes no budget progress; jumping here guarantees
    every stall-recovery step evaluates something new, which bounds
    every strategy's runtime by the budget.

    ``tracker.seen`` only grows, so the first unseen index in canonical
    order never moves back: the tracker's ``cursor`` resumes from the
    last answer, and all the calls of one search together step through
    the space at most once.  ``None`` means full coverage.
    """
    size = space.size
    while tracker.cursor < size:
        if tracker.cursor not in tracker.seen:
            return tracker.cursor
        tracker.cursor += 1
    return None


class ExhaustiveSearch:
    """Walk the full grid in canonical order (budget-truncated)."""

    name = "grid"

    def run(self, space: ParameterSpace, evaluate: EvaluateFn, *,
            budget: int, seed: int, objective: str) -> list[Evaluation]:
        tracker = _Tracker(space, evaluate, budget, objective)
        for index in range(space.size):
            if tracker.evaluate(index) is None:
                break
        return tracker.order


class GreedySearch:
    """Steepest-ascent hill climbing with seeded random restarts."""

    name = "greedy"

    def run(self, space: ParameterSpace, evaluate: EvaluateFn, *,
            budget: int, seed: int, objective: str) -> list[Evaluation]:
        rng = _Rng(seed)
        tracker = _Tracker(space, evaluate, budget, objective)
        while not tracker.exhausted:
            spent = len(tracker.order)
            current = rng.index(space.size)
            if tracker.evaluate(current) is None:
                break
            improved = True
            while improved and not tracker.exhausted:
                improved = False
                best_move = current
                for neighbour in space.neighbour_indices(current):
                    if tracker.evaluate(neighbour) is None:
                        break
                    if tracker.better(neighbour, best_move):
                        best_move = neighbour
                if best_move != current:
                    current = best_move
                    improved = True
            if len(tracker.order) == spent:
                # The restart landed in already-explored terrain and the
                # climb went nowhere new; revisits are free, so force
                # budget progress (or detect full coverage) explicitly.
                fresh = _first_unseen(space, tracker)
                if fresh is None or tracker.evaluate(fresh) is None:
                    break
        return tracker.order


class AnnealingSearch:
    """Simulated annealing over single-axis random moves."""

    name = "anneal"

    #: Starting temperature relative to the first feasible score.
    _T0_FRACTION = 0.25
    #: Geometric cooling factor per accepted-or-rejected step.
    _COOLING = 0.95
    #: Proposals without a new evaluation before forcing a jump; once
    #: cooled, a walker parked on a local optimum whose neighbourhood
    #: is fully explored would otherwise spin forever on free revisits.
    _STALL_LIMIT = 16

    def run(self, space: ParameterSpace, evaluate: EvaluateFn, *,
            budget: int, seed: int, objective: str) -> list[Evaluation]:
        rng = _Rng(seed)
        tracker = _Tracker(space, evaluate, budget, objective)

        current = rng.index(space.size)
        evaluation = tracker.evaluate(current)
        # Re-seat on a feasible point if the random start is rejected
        # (bounded draws: a space can be entirely infeasible).
        attempts = 0
        while (evaluation is not None and not evaluation.feasible
               and attempts < space.size):
            current = rng.index(space.size)
            evaluation = tracker.evaluate(current)
            attempts += 1
        if evaluation is None or not evaluation.feasible:
            return tracker.order

        temperature = max(tracker.score(current), 1.0) * self._T0_FRACTION
        stall = 0
        while not tracker.exhausted:
            spent = len(tracker.order)
            moves = space.neighbour_indices(current)
            proposal = moves[rng.index(len(moves))]
            if tracker.evaluate(proposal) is None:
                break
            delta = tracker.score(proposal) - tracker.score(current)
            if delta >= 0 or (
                math.isfinite(delta)
                and rng.uniform() < math.exp(delta / temperature)
            ):
                current = proposal
            temperature = max(temperature * self._COOLING, 1e-9)
            if len(tracker.order) == spent:
                stall += 1
                if stall >= self._STALL_LIMIT:
                    fresh = _first_unseen(space, tracker)
                    restart = (tracker.evaluate(fresh)
                               if fresh is not None else None)
                    if restart is None:
                        break
                    if restart.feasible:
                        current = fresh
                    stall = 0
            else:
                stall = 0
        return tracker.order


#: Registered strategies by CLI name.
STRATEGIES: dict[str, type] = {
    ExhaustiveSearch.name: ExhaustiveSearch,
    GreedySearch.name: GreedySearch,
    AnnealingSearch.name: AnnealingSearch,
}


def make_strategy(name: str) -> SearchStrategy:
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise TuneError(
            f"unknown search strategy {name!r}; known: {sorted(STRATEGIES)}"
        ) from None
