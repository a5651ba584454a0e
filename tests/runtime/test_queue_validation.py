"""Property tests for the simulator's deadlock check.

``simulate_schedule`` must reject, with a typed error, the two schedule
shapes it could never complete: waits on events no enqueued command
produces, and dependency cycles (explicit event edges combined with the
implicit per-resource in-order edges).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.runtime.event import Command, Event
from repro.runtime.queue import CommandQueue
from repro.runtime.simulator import simulate_schedule

RESOURCES = ("pcie_h2d", "kernel", "pcie_d2h")


@st.composite
def valid_queue(draw):
    """A random well-formed queue: waits only on earlier commands."""
    queue = CommandQueue("prop")
    events = []
    for index in range(draw(st.integers(min_value=1, max_value=12))):
        wait_indices = []
        if events:
            count = draw(st.integers(0, min(2, len(events))))
            wait_indices = draw(st.lists(
                st.integers(0, len(events) - 1),
                min_size=count, max_size=count, unique=True))
        events.append(queue.enqueue(Command(
            f"c{index}", draw(st.sampled_from(RESOURCES)),
            draw(st.floats(min_value=0.001, max_value=1.0)),
            wait_for=[events[i] for i in wait_indices],
        )))
    return queue


class TestValidQueues:
    @settings(max_examples=60, deadline=None)
    @given(valid_queue())
    def test_forward_dags_always_validate(self, queue):
        result = simulate_schedule(queue)
        assert result.makespan > 0

    def test_empty_queue_validates(self):
        simulate_schedule(CommandQueue())


class TestPhantomEvents:
    @settings(max_examples=40, deadline=None)
    @given(valid_queue(), st.integers(0, 1_000_000))
    def test_wait_on_never_enqueued_event_raises(self, queue, tag):
        phantom = Event(name=f"phantom{tag}")
        queue.enqueue(Command("waiter", "kernel", 0.1,
                              wait_for=[phantom]))
        with pytest.raises(ScheduleError, match="produces"):
            simulate_schedule(queue)

    def test_wait_on_unenqueued_command_event_raises(self):
        orphan = Command("orphan", "kernel", 0.1)  # never enqueued
        queue = CommandQueue()
        queue.enqueue(Command("waiter", "kernel", 0.1,
                              wait_for=[orphan.event]))
        with pytest.raises(ScheduleError, match="produces"):
            simulate_schedule(queue)

    def test_already_complete_foreign_event_is_fine(self):
        done = Event(name="earlier.done", time=1.0)
        queue = CommandQueue()
        queue.enqueue(Command("waiter", "kernel", 0.1, wait_for=[done]))
        simulate_schedule(queue)  # satisfied before this queue starts


class TestCycles:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=10))
    def test_event_ring_always_deadlocks(self, n):
        """c0 -> c1 -> ... -> c(n-1) -> c0 through pure event edges."""
        commands = [Command(f"c{i}", f"r{i}", 0.1) for i in range(n)]
        for i, command in enumerate(commands):
            command.wait_for.append(commands[(i + 1) % n].event)
        queue = CommandQueue("ring")
        for command in commands:
            queue.enqueue(command)
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate_schedule(queue)

    def test_resource_order_closes_the_cycle(self):
        """First-on-resource waits on second-on-resource: the implicit
        in-order edge plus the event edge form a two-command cycle."""
        second = Command("second", "kernel", 0.1)
        first = Command("first", "kernel", 0.1,
                        wait_for=[second.event])
        queue = CommandQueue()
        queue.enqueue(first)
        queue.enqueue(second)
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate_schedule(queue)

    def test_self_wait_deadlocks(self):
        command = Command("selfie", "kernel", 0.1)
        command.wait_for.append(command.event)
        queue = CommandQueue()
        queue.enqueue(command)
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate_schedule(queue)

    @settings(max_examples=30, deadline=None)
    @given(valid_queue())
    def test_back_edge_onto_dependent_chain_deadlocks(self, queue):
        """Appending a command the head waits on, on the head's resource,
        always creates a cycle through the in-order edge."""
        head = queue.commands[0]
        tail = Command("tail", head.resource, 0.1)
        head.wait_for.append(tail.event)
        queue.enqueue(tail)
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate_schedule(queue)
