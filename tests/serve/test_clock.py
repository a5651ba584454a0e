"""Virtual clock: deterministic ordering and typed stall detection."""

import asyncio
import subprocess
import sys

import pytest

from repro.serve import SchedulerStallError, VirtualClock, run_virtual


class TestSleepOrdering:
    def test_timers_fire_in_time_order(self):
        clock = VirtualClock()
        order = []

        async def sleeper(name, seconds):
            await clock.sleep(seconds)
            order.append((name, clock.now))

        async def main():
            await asyncio.gather(sleeper("late", 3.0), sleeper("early", 1.0),
                                 sleeper("mid", 2.0))

        run_virtual(clock, main())
        assert order == [("early", 1.0), ("mid", 2.0), ("late", 3.0)]

    def test_equal_deadlines_keep_registration_order(self):
        clock = VirtualClock()
        order = []

        async def sleeper(name):
            await clock.sleep(1.0)
            order.append(name)

        async def main():
            await asyncio.gather(sleeper("a"), sleeper("b"), sleeper("c"))

        run_virtual(clock, main())
        assert order == ["a", "b", "c"]

    def test_time_jumps_not_crawls(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(1e6)  # a million modelled seconds
            return clock.now

        assert run_virtual(clock, main()) == 1e6

    def test_zero_sleep_still_yields(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(0.0)
            return clock.now

        assert run_virtual(clock, main()) == 0.0

    def test_nested_sleeps_accumulate(self):
        clock = VirtualClock()

        async def main():
            for _ in range(5):
                await clock.sleep(0.5)
            return clock.now

        assert run_virtual(clock, main()) == pytest.approx(2.5)

    def test_returns_coroutine_value(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(1.0)
            return "done"

        assert run_virtual(clock, main()) == "done"


class TestStallDetection:
    def test_unresolved_future_raises_typed_error(self):
        clock = VirtualClock()

        async def main():
            # Waits on a future nothing will ever resolve: with no
            # timers pending this must surface as a typed stall, not a
            # hang.
            await asyncio.get_running_loop().create_future()

        with pytest.raises(SchedulerStallError, match="stalled"):
            run_virtual(clock, main())

    def test_stall_after_timers_drain(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(1.0)
            await asyncio.get_running_loop().create_future()

        with pytest.raises(SchedulerStallError):
            run_virtual(clock, main())

    def test_exception_propagates(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_virtual(clock, main())


#: A root that waits on a future nothing resolves and sleeps on the
#: clock in its cleanup.  Run in a child process: an executor that
#: cannot advance the clock during that cleanup hangs there for good.
STALL_WITH_SLEEPING_CLEANUP = """
import asyncio
from repro.serve import SchedulerStallError, VirtualClock, run_virtual

clock = VirtualClock()

async def main():
    try:
        await asyncio.get_running_loop().create_future()
    finally:
        await clock.sleep(1.0)

try:
    run_virtual(clock, main())
except SchedulerStallError:
    print("stalled; cleanup ended at", clock.now)
"""


class TestIdlePoint:
    """The clock advances only where the loop would otherwise block."""

    def test_deep_wake_chain_settles_before_time_moves(self):
        clock = VirtualClock()
        seen = []

        async def chain():
            for _ in range(100):
                await asyncio.sleep(0)
            seen.append(clock.now)

        async def main():
            await asyncio.gather(chain(), clock.sleep(1.0))

        run_virtual(clock, main())
        assert seen == [0.0]
        assert clock.now == 1.0

    def test_stall_whose_cleanup_sleeps_raises(self):
        try:
            child = subprocess.run(
                [sys.executable, "-c", STALL_WITH_SLEEPING_CLEANUP],
                capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("run_virtual hung in the stalled root's cleanup")
        assert child.returncode == 0, child.stderr
        assert child.stdout == "stalled; cleanup ended at 1.0\n"

    def test_wall_clock_timer_is_a_typed_error(self):
        clock = VirtualClock()

        async def main():
            await asyncio.sleep(0.5)

        with pytest.raises(SchedulerStallError, match="wall-clock"):
            run_virtual(clock, main())

    def test_stalled_root_cleans_up_before_the_tasks_it_left(self):
        clock = VirtualClock()
        order = []

        async def waiter(name):
            try:
                await asyncio.get_running_loop().create_future()
            finally:
                order.append(name)

        async def main():
            asyncio.ensure_future(waiter("left behind"))
            await waiter("root")

        with pytest.raises(SchedulerStallError):
            run_virtual(clock, main())
        assert order == ["root", "left behind"]

    def test_pending_tasks_are_cancelled_after_the_root(self):
        clock = VirtualClock()
        cleaned = []

        async def background():
            try:
                await clock.sleep(10.0)
            finally:
                cleaned.append(clock.now)

        async def main():
            asyncio.ensure_future(background())
            await clock.sleep(1.0)
            return "done"

        assert run_virtual(clock, main()) == "done"
        assert cleaned == [1.0]
