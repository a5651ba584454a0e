"""A shared schedule order prices a run exactly as a fresh queue does.

The simulator fixes each queue's start order once (``schedule_order``)
and times any run of the same shape along it (``ScheduleOrder.price``).
Pricing one run's durations along an order built from another run's
queue must equal ``simulate_schedule`` on a queue freshly built for that
run, bit for bit: makespan, busy, timeline, retries and the fault trace,
or the same typed error with the same message.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.errors import ReproError, ScheduleError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.hardware.devices import ALVEO_U280, STRATIX10_GX2800, TESLA_V100
from repro.hardware.pcie import PCIeLink
from repro.kernel.config import KernelConfig
from repro.runtime.event import Command, Event
import repro.runtime.overlap as overlap_module
from repro.runtime.overlap import (
    ChunkWork,
    build_overlapped_schedule,
    build_sequential_schedule,
    overlapped_durations,
    sequential_durations,
)
from repro.runtime.queue import CommandQueue
from repro.runtime.session import AdvectionSession, SessionMemo
from repro.runtime.simulator import schedule_order, simulate_schedule

seconds = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False)
nbytes = st.floats(min_value=0.0, max_value=1e8, allow_nan=False)

links = st.builds(
    PCIeLink, streamed_bandwidth=st.sampled_from([8e9, 12e9]),
    synchronous_bandwidth=st.sampled_from([2e9, 8e9]),
    latency=st.sampled_from([0.0, 20e-6]), duplex=st.booleans())


def chunk_lists(count):
    return st.lists(
        st.builds(lambda in_b, out_b, k: (in_b, out_b, k),
                  nbytes, nbytes, seconds),
        min_size=count, max_size=count).map(
        lambda items: [ChunkWork(index, *item)
                       for index, item in enumerate(items)])


@st.composite
def fault_setups(draw):
    """Transfer faults (stall, fail, hang), a retry policy and a
    watchdog, each possibly absent.  Returns a factory, so each side of
    a comparison draws from a fresh plan with the same seed."""
    specs = draw(st.lists(st.builds(
        FaultSpec, site=st.just("transfer"),
        kind=st.sampled_from(["stall", "fail"]),
        match=st.sampled_from(["*", "*h2d*", "*d2h*", "*[0]", "lane:*"]),
        probability=st.sampled_from([0.25, 0.5, 1.0]),
        count=st.sampled_from([1, 2, None]),
        seconds=st.sampled_from([None, 1e-4, 3e-3])), max_size=3))
    seed = draw(st.integers(0, 50))
    retry = draw(st.sampled_from([
        None, RetryPolicy(max_attempts=1),
        RetryPolicy(max_attempts=4, base_delay=1e-4, jitter=0.3, seed=3)]))
    watchdog = draw(st.sampled_from([None, 1e-3, 5e-2, 10.0]))

    def make() -> dict:
        return {"fault_plan": FaultPlan(specs, seed=seed) if specs else None,
                "retry": retry, "watchdog_seconds": watchdog}
    return make


def outcome(price, faults: dict):
    """What one pricing shows: its whole result (a ``ScheduleResult``
    compares makespan, busy, timeline and retries exactly) or its typed
    error, and the faults it drew."""
    try:
        shown = price(**faults)
    except ReproError as error:
        shown = (type(error), str(error))
    plan = faults["fault_plan"]
    return shown, plan.trace_key() if plan is not None else ()


class TestSharedShape:
    @settings(max_examples=80, deadline=None)
    @given(count=st.integers(1, 6), data=st.data(), pcie=links,
           prefix=st.sampled_from(["", "lane:"]), faults=fault_setups())
    def test_overlapped_order_prices_like_a_fresh_queue(
            self, count, data, pcie, prefix, faults):
        built, priced = data.draw(chunk_lists(count)), data.draw(
            chunk_lists(count))
        order = schedule_order(build_overlapped_schedule(
            built, pcie, name_prefix=prefix))
        durations = overlapped_durations(priced, pcie)
        # A first pricing along the order must leave nothing behind.
        order.price(overlapped_durations(built, pcie))
        shared = outcome(lambda **kw: order.price(durations, **kw), faults())
        fresh = outcome(lambda **kw: simulate_schedule(
            build_overlapped_schedule(priced, pcie, name_prefix=prefix),
            **kw), faults())
        assert shared == fresh

    @settings(max_examples=40, deadline=None)
    @given(built=st.tuples(nbytes, nbytes, seconds),
           priced=st.tuples(nbytes, nbytes, seconds), pcie=links,
           faults=fault_setups())
    def test_sequential_order_prices_like_a_fresh_queue(
            self, built, priced, pcie, faults):
        order = schedule_order(build_sequential_schedule(*built, pcie))
        durations = sequential_durations(*priced, pcie)
        shared = outcome(lambda **kw: order.price(durations, **kw), faults())
        fresh = outcome(lambda **kw: simulate_schedule(
            build_sequential_schedule(*priced, pcie), **kw), faults())
        assert shared == fresh

    def test_a_second_pricing_reads_nothing_the_first_wrote(self):
        link = PCIeLink(12e9, 8e9)
        slow = [ChunkWork(i, 1e9, 1e9, 1.0) for i in range(3)]
        fast = [ChunkWork(i, 1e3, 1e3, 1e-3) for i in range(3)]
        order = schedule_order(build_overlapped_schedule(slow, link))
        order.price(overlapped_durations(slow, link))
        again = order.price(overlapped_durations(fast, link))
        assert again.timeline == simulate_schedule(
            build_overlapped_schedule(fast, link)).timeline

    def test_a_queue_simulated_again_reads_no_stale_event_time(self):
        """``reader`` is enqueued first and waits on ``writer``: a second
        run must not start it on the event time the first run left."""
        writer = Command("writer", "r1", 1.0)
        reader = Command("reader", "r2", 1.0, wait_for=[writer.event])
        queue = CommandQueue()
        queue.enqueue(reader)
        queue.enqueue(writer)
        simulate_schedule(queue)
        writer.duration = 5.0
        assert simulate_schedule(queue).timeline == [
            ("writer", "r1", 0.0, 5.0), ("reader", "r2", 5.0, 6.0)]

    @pytest.mark.parametrize("duplex", [True, False])
    @pytest.mark.parametrize("overlapped", [True, False])
    def test_faults_strike_every_transfer_lane(self, duplex, overlapped):
        """A stall on a result readback delays it on either link, in
        either shape."""
        link = PCIeLink(12e9, 8e9, duplex=duplex)
        queue = (build_overlapped_schedule([ChunkWork(0, 1e6, 1e6, 1e-3)],
                                           link) if overlapped
                 else build_sequential_schedule(1e6, 1e6, 1e-3, link))
        order = schedule_order(queue)
        durations = [command.duration for command in queue.commands]
        plan = FaultPlan([FaultSpec("transfer", "stall", match="d2h*",
                                    seconds=0.5)])
        stalled = order.price(durations, fault_plan=plan)
        assert stalled.makespan == pytest.approx(
            order.price(durations).makespan + 0.5)
        assert [event.name for event in plan.trace] == [
            queue.commands[-1].name]

    def test_durations_must_match_the_queue(self):
        order = schedule_order(build_sequential_schedule(
            1.0, 1.0, 1.0, PCIeLink(12e9, 8e9)))
        with pytest.raises(ScheduleError, match="3 commands but 2"):
            order.price([1.0, 1.0])
        with pytest.raises(ScheduleError,
                           match="'kernel\\[all\\]': duration must be >= 0"):
            order.price([1.0, -1.0, 1.0])


def rescan(queue: CommandQueue) -> tuple[list[tuple], bool]:
    """The list-scheduling rule read literally, as one pass: rescan the
    queue for the first command, in enqueue order, that heads its
    resource's lane and whose awaited events are complete, and start it
    at the latest of its resource freeing and those events.  Returns
    ``(name, resource, start, end)`` per started command in start order,
    and whether every command started."""
    commands = queue.commands
    ends: dict[int, float] = {}
    free: dict[str, float] = {}
    started: list[tuple] = []
    producers = {id(c.event): i for i, c in enumerate(commands)}

    def done(event) -> float | None:
        if id(event) in producers:
            return ends.get(producers[id(event)])
        return event.time

    while len(ends) < len(commands):
        lanes: set[str] = set()
        for index, command in enumerate(commands):
            if index in ends or command.resource in lanes:
                continue
            lanes.add(command.resource)
            times = [done(event) for event in command.wait_for]
            if None not in times:
                start = max([free.get(command.resource, 0.0), *times])
                ends[index] = free[command.resource] = (start
                                                        + command.duration)
                started.append((command.name, command.resource, start,
                                ends[index]))
                break
        else:
            return started, False
    return started, True


@st.composite
def tangled_queues(draw):
    """Queues whose waits may point forward, at themselves, at a
    foreign complete event or at a phantom: some stall."""
    count = draw(st.integers(1, 9))
    commands = [Command(f"c{i}", draw(st.sampled_from(
        ["pcie_h2d", "kernel", "pcie_d2h"])), draw(seconds))
        for i in range(count)]
    for command in commands:
        for _ in range(draw(st.integers(0, 2))):
            target = draw(st.integers(-2, count - 1))
            command.wait_for.append(
                Event("foreign.done", time=draw(seconds)) if target == -2
                else Event("phantom") if target == -1
                else commands[target].event)
    queue = CommandQueue("tangled")
    for command in commands:
        queue.enqueue(command)
    return queue


class TestStartOrder:
    @settings(max_examples=150, deadline=None)
    @given(tangled_queues())
    def test_the_two_passes_run_the_list_scheduling_rule(self, queue):
        expected, completes = rescan(queue)
        order = schedule_order(queue)
        assert [order.names[index] for index, *_ in order.steps] == [
            name for name, *_ in expected]
        assert (order.stall is None) == completes
        try:
            result = simulate_schedule(queue)
        except ScheduleError:
            assert not completes
        else:
            assert result.timeline == sorted(expected,
                                             key=lambda item: item[3])
        # Every command that ran keeps its times, stalled queue or not.
        for name, _, start, end in expected:
            command = next(c for c in queue.commands if c.name == name)
            assert (command.start, command.end) == (start, end)

    def test_phantom_wait_message(self):
        queue = CommandQueue("q")
        queue.enqueue(Command("waiter", "kernel", 0.1,
                              wait_for=[Event("phantom")]))
        with pytest.raises(ScheduleError) as caught:
            simulate_schedule(queue)
        assert str(caught.value) == (
            "command 'waiter' waits on event 'phantom' which no command "
            "in queue 'q' produces and which is not complete — it would "
            "never become runnable")

    def test_dependency_cycle_message(self):
        second = Command("second", "kernel", 0.1)
        first = Command("first", "kernel", 0.1, wait_for=[second.event])
        queue = CommandQueue("q")
        queue.enqueue(first)
        queue.enqueue(second)
        with pytest.raises(ScheduleError) as caught:
            simulate_schedule(queue)
        assert str(caught.value) == (
            "dependency cycle would deadlock queue 'q': command 'first' "
            "waits on event 'second.done', which completes only after "
            "'first' starts")


#: A U280 whose two DMA directions share one link.
SIMPLEX_U280 = dataclasses.replace(
    ALVEO_U280, name="Xilinx Alveo U280, simplex link",
    pcie=dataclasses.replace(ALVEO_U280.pcie, duplex=False))

#: Configs a tuner-sized run might price, on four devices.
SESSIONS = [
    (device, KernelConfig(grid=Grid(16, 24, 8), chunk_width=width,
                          word_bytes=word), kernels, x_chunks)
    for device, kernels in ((ALVEO_U280, 2), (STRATIX10_GX2800, 1),
                            (TESLA_V100, None), (SIMPLEX_U280, 1))
    for width in (8, 12) for word in (8, 4) for x_chunks in (1, 3, 8)
]


class TestSessionsShareAMemo:
    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.tuples(st.sampled_from(SESSIONS), st.booleans()),
                          min_size=1, max_size=12),
           faults=fault_setups())
    def test_runs_equal_fresh_sessions(self, picks, faults):
        """Sessions sharing one memo, in a drawn order, return the
        ``RunResult`` (with its ``ScheduleResult``) or the error a fresh
        session does."""
        grid = Grid(16, 24, 8)
        memo = SessionMemo()
        for (device, config, kernels, x_chunks), overlapped in picks:
            def run(memo=None, **kw):
                return AdvectionSession(
                    device, config, num_kernels=kernels, x_chunks=x_chunks,
                    memo=memo).run(grid, overlapped=overlapped, **kw)

            assert (outcome(lambda **kw: run(memo, **kw), faults())
                    == outcome(run, faults()))

    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.tuples(
        st.sampled_from(SESSIONS), st.sampled_from(["", "a:", "b:"]),
        st.sampled_from([1.0, 2.0])), min_size=1, max_size=8),
        faults=fault_setups())
    def test_named_schedules_equal_fresh_queues(self, picks, faults):
        """The serving layer's lanes prefix their command names; one
        memo serves every prefix."""
        grid = Grid(16, 24, 8)
        memo = SessionMemo()
        for (device, config, kernels, x_chunks), prefix, scale in picks:
            session = AdvectionSession(device, config, num_kernels=kernels,
                                       x_chunks=x_chunks, memo=memo)
            chunks = session.chunk_work(grid, out_scale=scale)
            assert outcome(lambda **kw: session.schedule(
                grid, overlapped=True, out_scale=scale, name_prefix=prefix,
                **kw), faults()) == outcome(
                lambda **kw: simulate_schedule(build_overlapped_schedule(
                    chunks, device.pcie, name_prefix=prefix), **kw),
                faults())

    def test_one_queue_per_shape(self, monkeypatch):
        built = []

        class CountedQueue(CommandQueue):
            def __init__(self, name: str = "queue") -> None:
                super().__init__(name)
                built.append(name)

        monkeypatch.setattr(overlap_module, "CommandQueue", CountedQueue)
        grid = Grid(16, 24, 8)
        memo = SessionMemo()
        for _, config, _, x_chunks in SESSIONS[:12]:
            for overlapped in (False, True):
                AdvectionSession(ALVEO_U280, config, x_chunks=x_chunks,
                                 memo=memo).run(grid, overlapped=overlapped)
        # Sequential, and overlapped over 1, 3 and 8 X chunks: 24 runs.
        assert sorted(built) == ["overlapped"] * 3 + ["sequential"]
