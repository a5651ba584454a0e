"""Tests for the dual-port memory access tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PortConflictError
from repro.shiftbuffer.ports import MemoryPortTracker, PortReport


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


def eager_fold(bookings, *, ports, enforce):
    """The ledger as an eager fold: every booking updates every report.

    Returns ``(reports, conflicts)`` after applying ``bookings`` — a list
    of ``(pattern, cycles)`` — skipping (but counting) each booking an
    enforcing tracker refuses.
    """
    reports: dict[str, PortReport] = {}
    conflicts = 0
    for pattern, cycles in bookings:
        if cycles == 0:
            continue
        over = [m for m, count in pattern.items() if count > ports]
        if over and enforce:
            conflicts += cycles
            continue
        conflicts += cycles * len(over)
        for memory, count in pattern.items():
            report = reports.setdefault(memory, PortReport(memory))
            report.total_accesses += count * cycles
            report.max_accesses_per_cycle = max(
                report.max_accesses_per_cycle, count)
        for report in reports.values():
            report.cycles += cycles
    return reports, conflicts


#: A small pool: shared memories, an over-budget pattern, a zero count,
#: and equal contents in another key order.
PATTERN_POOL = (
    {"a": 1, "b": 2},
    {"b": 3},
    {"c": 2, "a": 2},
    {"d": 0},
    {"b": 2, "a": 1},
    {"e": 5, "a": 1},
)


class TestLazyLedger:
    @settings(max_examples=60, deadline=None)
    @given(enforce=st.booleans(), ports=st.integers(1, 3),
           steps=st.lists(st.tuples(st.integers(0, len(PATTERN_POOL) - 1),
                                    st.booleans(), st.integers(0, 6)),
                          max_size=25))
    def test_reports_equal_an_eager_fold(self, enforce, ports, steps):
        """Bookings drawn from a pool, some as fresh dicts of the same
        contents: the ledger reads what an eager fold computes, report
        order included, and refuses exactly the enforced conflicts."""
        tracker = MemoryPortTracker(ports=ports, enforce=enforce)
        booked = []
        for index, fresh, cycles in steps:
            pattern = PATTERN_POOL[index]
            if fresh:
                pattern = dict(pattern)
            refused = (enforce and cycles > 0
                       and any(c > ports for c in pattern.values()))
            if refused:
                with pytest.raises(PortConflictError):
                    tracker.record(pattern, cycles)
            else:
                tracker.record(pattern, cycles)
            booked.append((pattern, cycles))
            assert tracker.conflicts == eager_fold(
                booked, ports=ports, enforce=enforce)[1]
        reports, _conflicts = eager_fold(booked, ports=ports,
                                         enforce=enforce)
        assert list(tracker.reports()) == list(reports)
        assert tracker.reports() == reports
        for memory in ("a", "b", "c", "d", "e", "ghost"):
            assert tracker.report(memory) == reports.get(
                memory, PortReport(memory))
        assert tracker.worst_case == max(
            (r.max_accesses_per_cycle for r in reports.values()), default=0)
