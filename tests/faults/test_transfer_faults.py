"""Injected PCIe transfer faults through the schedule simulator.

A fail with no retry policy is a typed TransferError; with a policy the
link is charged for every doomed attempt plus backoff; a stall delays
the one attempt; a hang (stall with no duration) trips the schedule
watchdog.
"""

import pytest

from repro.errors import (
    RetryExhaustedError,
    ScheduleError,
    TransferError,
    WatchdogTimeout,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.hardware.pcie import PCIeLink
from repro.runtime.overlap import ChunkWork, build_overlapped_schedule
from repro.runtime.queue import CommandQueue
from repro.runtime.simulator import simulate_schedule


@pytest.fixture
def link():
    return PCIeLink(streamed_bandwidth=10e9, synchronous_bandwidth=5e9,
                    latency=0.0)


def chunks(n=4):
    return [ChunkWork(index=i, in_bytes=1e9, out_bytes=0.5e9,
                      kernel_seconds=0.05) for i in range(n)]


def single_transfer_queue():
    queue = CommandQueue("one")
    queue.enqueue_write("h2d[0]", 0.1)
    return queue


class TestTransferFail:
    def test_fail_without_policy_is_typed(self):
        plan = FaultPlan([FaultSpec("transfer", "fail", match="h2d*")])
        with pytest.raises(TransferError, match="injected"):
            simulate_schedule(single_transfer_queue(), fault_plan=plan)

    def test_fail_with_policy_charges_attempts_and_backoff(self):
        golden = simulate_schedule(single_transfer_queue())
        plan = FaultPlan([FaultSpec("transfer", "fail", match="h2d*",
                                    count=1)])
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        result = simulate_schedule(single_transfer_queue(),
                                   fault_plan=plan, retry=retry)
        assert result.retries == {"h2d[0]": 1}
        # One doomed full-duration attempt plus the first backoff delay.
        assert result.makespan == pytest.approx(
            golden.makespan + 0.1 + retry.delay(0))

    def test_persistent_fail_exhausts_budget(self):
        plan = FaultPlan([FaultSpec("transfer", "fail", match="h2d*",
                                    count=None)])
        with pytest.raises(RetryExhaustedError, match="attempts") as info:
            simulate_schedule(single_transfer_queue(), fault_plan=plan,
                              retry=RetryPolicy(max_attempts=2))
        assert isinstance(info.value.__cause__, TransferError)

    def test_faults_only_strike_pcie_resources(self):
        plan = FaultPlan([FaultSpec("transfer", "fail", match="*",
                                    count=None)])
        queue = CommandQueue()
        queue.enqueue_kernel("kernel[0]", 0.2)
        result = simulate_schedule(queue, fault_plan=plan)
        assert result.makespan == pytest.approx(0.2)
        assert len(plan.trace) == 0


class TestTransferStall:
    def test_stall_adds_its_delay(self):
        golden = simulate_schedule(single_transfer_queue())
        plan = FaultPlan([FaultSpec("transfer", "stall", match="h2d*",
                                    seconds=0.25)])
        result = simulate_schedule(single_transfer_queue(),
                                   fault_plan=plan)
        assert result.makespan == pytest.approx(golden.makespan + 0.25)

    def test_hang_raises_watchdog_not_a_hang(self):
        plan = FaultPlan([FaultSpec("transfer", "stall", match="h2d*",
                                    seconds=None)])
        with pytest.raises(WatchdogTimeout, match="hang"):
            simulate_schedule(single_transfer_queue(), fault_plan=plan)


class TestScheduleWatchdog:
    def test_budget_breach_is_typed(self, link):
        queue = build_overlapped_schedule(chunks(), link)
        with pytest.raises(WatchdogTimeout, match="watchdog"):
            simulate_schedule(queue, watchdog_seconds=1e-6)

    def test_generous_budget_never_fires(self, link):
        queue = build_overlapped_schedule(chunks(), link)
        golden = build_overlapped_schedule(chunks(), link)
        budget = simulate_schedule(golden).makespan * 10
        result = simulate_schedule(queue, watchdog_seconds=budget)
        assert result.makespan < budget

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ScheduleError, match="watchdog_seconds"):
            simulate_schedule(single_transfer_queue(),
                              watchdog_seconds=0.0)


class TestClosedFormRetryCost:
    """What the simulator charges a failing transfer, in closed form:
    every attempt occupies the link for the whole transfer, and the
    policy's backoff elapses before each re-drive."""

    def test_link_model_matches_simulator_charging(self, link):
        once = link.transfer_time(1e9, streamed=False)
        queue = CommandQueue("one")
        queue.enqueue_write("h2d[0]", once)
        plan = FaultPlan([FaultSpec("transfer", "fail", match="h2d*",
                                    count=2)])
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0)
        result = simulate_schedule(queue, fault_plan=plan, retry=policy)
        assert result.retries == {"h2d[0]": 2}
        assert result.makespan == pytest.approx(
            3 * once + policy.total_delay(2))

    def test_zero_failures_is_plain_transfer(self, link):
        once = link.transfer_time(1e9, streamed=False)
        queue = CommandQueue("one")
        queue.enqueue_write("h2d[0]", once)
        result = simulate_schedule(queue, retry=RetryPolicy())
        assert result.retries == {}
        assert result.makespan == once
