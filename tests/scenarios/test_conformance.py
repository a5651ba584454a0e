"""The cross-mode conformance harness, run over the whole registry.

This is the suite's enforcement arm: every registered scenario must be
bit-identical across forced-scalar and batched exact execution (against
the NumPy reference), agree under an injected fault plan, pass lint, and
carry a static deadlock-freedom proof.  A scenario that fails
any leg cannot ship.
"""

import dataclasses

import pytest

from repro.dataflow.engine import RunStats
from repro.scenarios import get, names, run_conformance, run_suite
from repro.scenarios.conformance import CHECKS, STATS_BATCH_KEYS


@pytest.mark.parametrize("name", names())
class TestEveryScenarioConforms:
    def test_all_checks_pass(self, name):
        entry = run_conformance(get(name))
        failures = [f"{r.check}: {r.detail}" for r in entry.results
                    if not r.ok]
        assert entry.ok, f"{name} failed conformance: {failures}"
        assert [r.check for r in entry.results] == list(CHECKS)


class TestHarnessMechanics:
    def test_stats_batch_keys_exist(self):
        """The exclusion list must track RunStats' actual dict shape."""
        keys = set(RunStats(cycles=0).to_dict())
        assert STATS_BATCH_KEYS <= keys

    def test_suite_report_shapes(self):
        report = run_suite(("buoyancy",))
        assert report.ok
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["scenarios"][0]["scenario"] == "buoyancy"
        text = report.render_text()
        assert "1/1 scenarios" in text

    def test_failures_render_with_detail(self):
        report = run_suite(("buoyancy",))
        entry = report.entries[0]
        entry.results[0] = dataclasses.replace(
            entry.results[0], ok=False, detail="synthetic failure")
        assert not report.ok
        assert "synthetic failure" in report.render_text()

    def test_seed_changes_the_fault_leg_deterministically(self):
        """Same scenario, same seed: identical fault traces each time."""
        scenario = get("diffusion")
        first = scenario.fault_plan(seed=3)
        second = scenario.fault_plan(seed=3)
        grid = scenario.small_grid()
        for plan in (first, second):
            try:
                scenario.run(grid, mode="exact", batched=False,
                             fault_plan=plan)
            except Exception:
                pass
        assert first.trace_key() == second.trace_key()

    def test_fast_inadmissible_kernels_record_their_veto(self):
        """The harness asserts the fallback is *recorded*; double-check
        directly on every batch-inadmissible scenario."""
        for name in ("diffusion", "buoyancy", "diffusion-batch"):
            scenario = get(name)
            result = scenario.run(scenario.small_grid())
            assert not scenario.kernel.batch_admissible
            assert result.stats.batch_fallback_reason
            assert result.stats.batched_windows == 0

    def test_advection_fast_forward_is_admissible(self):
        scenario = get("pw-advection")
        result = scenario.run(scenario.small_grid())
        assert scenario.kernel.batch_admissible
        assert not result.stats.batch_fallback_reason
        assert result.stats.batched_windows > 0
