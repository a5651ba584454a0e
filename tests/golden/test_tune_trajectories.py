"""Golden trajectories of the tuner's searches.

Pins, for each run below, the order in which the search evaluated the
points of its space and the sha256 of ``TuneReport.to_json()``.  A
report carries the front, the best point and the counts but not the
evaluation order, so a search that walked the same space in another
order could still print the same report; the trajectory catches that.

A trajectory is written as the canonical indices of the evaluated
points (their positions in ``space.points()``), in evaluation order.
The 64^3 runs are the wall-clock benchmark's tune workload (U280,
two measured candidates) and are pinned by report digest only.
"""

import hashlib

from repro.core.grid import Grid
from repro.tune import tune

from .conftest import as_json

SMALL = Grid(16, 64, 16)


def _cases() -> dict[str, dict]:
    cases = {}
    for strategy in ("greedy", "grid", "anneal"):
        for seed in (0, 1, 7):
            cases[f"u280 {strategy} seed={seed}"] = dict(
                device="u280", strategy=strategy, seed=seed)
    for device in ("u280", "stratix10"):
        for budget in (48, None):
            cases[f"{device} greedy seed=3 budget={budget or 'full'}"] = dict(
                device=device, strategy="greedy", seed=3, budget=budget)
    cases["u280 greedy seed=0 wide_precision"] = dict(
        device="u280", strategy="greedy", seed=0, wide_precision=True)
    cases["u280 anneal seed=1 flops_scale=2.5"] = dict(
        device="u280", strategy="anneal", seed=1, flops_scale=2.5)
    cases["versal_aie greedy seed=0"] = dict(
        device=None, backend="versal_aie", strategy="greedy", seed=0)
    return cases


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def trajectory(report) -> str:
    index = {point.key(): i for i, point in enumerate(report.space.points())}
    return " ".join(str(index[e.point.key()]) for e in report.evaluations)


def test_tune_trajectories(golden):
    pinned = {}
    for name, inputs in _cases().items():
        report = tune(grid=SMALL, **inputs)
        pinned[name] = {"evaluated": len(report.evaluations),
                        "report_sha256": report_digest(report),
                        "trajectory": trajectory(report)}
    for seed in (0, 1, 7):
        report = tune("u280", Grid(64, 64, 64), seed=seed, measure_top_k=2)
        pinned[f"tune-64 seed={seed}"] = {
            "report_sha256": report_digest(report)}
    golden("tune_trajectories.json", as_json(pinned))
