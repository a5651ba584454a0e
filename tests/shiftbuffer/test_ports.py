"""Tests for the dual-port memory access tracker."""

import pytest

from repro.errors import PortConflictError
from repro.shiftbuffer.ports import MemoryPortTracker


class TestAccounting:
    def test_within_budget(self):
        t = MemoryPortTracker()
        t.record({"m": 2}, 1)
        assert t.worst_case == 2
        assert t.conflicts == 0

    def test_enforcing_raises_on_third_access(self):
        t = MemoryPortTracker(enforce=True)
        with pytest.raises(PortConflictError, match="partition"):
            t.record({"m": 3}, 1)
        assert t.reports() == {}

    def test_non_enforcing_records_conflicts(self):
        t = MemoryPortTracker(enforce=False)
        t.record({"m": 5}, 1)
        assert t.conflicts == 1
        assert t.worst_case == 5
        t.record({"m": 5, "ok": 2}, 4)
        assert t.conflicts == 5  # one per conflicting memory per cycle

    def test_separate_memories_tracked_separately(self):
        t = MemoryPortTracker()
        t.record({"a": 2, "b": 2}, 1)
        assert t.report("a").max_accesses_per_cycle == 2
        assert t.report("b").max_accesses_per_cycle == 2

    def test_many_cycles_book_like_repeated_single_cycles(self):
        pattern = {"a": 2, "b": 3, "c": 1}
        bulk = MemoryPortTracker(enforce=False)
        bulk.record(pattern, 7)
        single = MemoryPortTracker(enforce=False)
        for _ in range(7):
            single.record(pattern, 1)
        assert bulk.reports() == single.reports()
        assert bulk.conflicts == single.conflicts == 7

    def test_every_known_memory_ages(self):
        """Memories sharing a tracker share one cycle count."""
        t = MemoryPortTracker()
        t.record({"a": 1}, 2)
        t.record({"b": 2}, 3)
        assert t.report("a").cycles == 5
        assert t.report("b").cycles == 3
        assert t.report("a").total_accesses == 2

    def test_zero_cycles_book_nothing(self):
        t = MemoryPortTracker(enforce=True)
        t.record({"m": 5}, 0)
        assert t.reports() == {}
        assert t.conflicts == 0

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            MemoryPortTracker().record({"m": 1}, -1)

    def test_rejects_bad_ports(self):
        with pytest.raises(ValueError):
            MemoryPortTracker(ports=0)


class TestReports:
    def test_mean_accesses(self):
        t = MemoryPortTracker()
        for count in (1, 2, 1):
            t.record({"m": count}, 1)
        report = t.report("m")
        assert report.total_accesses == 4
        assert report.cycles == 3
        assert report.mean_accesses_per_cycle == pytest.approx(4 / 3)

    def test_unknown_memory_empty_report(self):
        t = MemoryPortTracker()
        report = t.report("ghost")
        assert report.total_accesses == 0
        assert report.mean_accesses_per_cycle == 0.0


class TestAchievableII:
    def test_ii_one_when_within_ports(self):
        t = MemoryPortTracker()
        t.record({"m": 2}, 1)
        assert t.achievable_ii() == 1

    @pytest.mark.parametrize("accesses,expected_ii", [(3, 2), (4, 2), (5, 3)])
    def test_ii_ceil_of_pressure(self, accesses, expected_ii):
        t = MemoryPortTracker(enforce=False)
        t.record({"m": accesses}, 1)
        assert t.achievable_ii() == expected_ii

    def test_ii_one_when_untouched(self):
        assert MemoryPortTracker().achievable_ii() == 1
