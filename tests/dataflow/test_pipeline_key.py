"""The pipeline's control key partitions states as the per-entry key does.

``Pipeline.key`` builds a stage's pipeline fingerprint from gaps and
shape ids it records as entries come and go.  The oracle below is the
per-entry key the engine used to build on every scalar cycle: one
``(max(ready - cycle, 0), shape)`` pair per in-flight entry.  Two states
must share a key exactly when their oracles are equal, or the engine
would find other recurrences than before (or false ones).
"""

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.stage import Pipeline, Stage
from repro.dataflow.stream import Stream

#: Entry shapes with 0, 1 or 2 items per port, on one or two ports.
SHAPES = ([(("out", k),) for k in (0, 1, 2)]
          + [(("a", i), ("b", j)) for i in (0, 1, 2) for j in (0, 1, 2)])


def oracle(entries, cycle):
    """The per-entry pipeline key: ``((max(ready - cycle, 0), shape),
    ...)`` over ``(ready, shape)`` pairs."""
    return tuple((max(ready - cycle, 0), shape) for ready, shape in entries)


def shape_id(shape):
    """The id a pipeline gives ``shape``."""
    probe = Pipeline(1)
    probe.append((0, {}, shape))
    return probe.key(0)[2][0]


def shape_of(produced):
    """An entry's per-port item counts, as the stage computes them."""
    return tuple((port, len(items)) for port, items in produced.items())


def decode(key):
    """The ``(age, shape id)`` pairs a pipeline key encodes."""
    head, steps, ids = key
    ages = list(accumulate((head,) + steps)) if ids else []
    return list(zip(ages, ids))


def encodes(key, expected):
    return decode(key) == [(age, shape_id(shape)) for age, shape in expected]


def build(entries):
    pipeline = Pipeline(max(len(entries), 1))
    for ready, shape in entries:
        pipeline.append((ready, {}, shape))
    return pipeline


@st.composite
def states(draw):
    """``(cycle, [(ready, shape), ...])``: 0 to ``latency`` entries with
    non-decreasing ready cycles (gaps of 0 included, as an ``ff_commit``
    clamp leaves them), the head possibly overdue."""
    latency = draw(st.integers(1, 8))
    cycle = draw(st.integers(0, 40))
    ready = cycle + draw(st.integers(-6, latency))
    entries = []
    for _ in range(draw(st.integers(0, latency))):
        entries.append((ready, draw(st.sampled_from(SHAPES))))
        ready += draw(st.integers(0, 3))
    return cycle, entries


@st.composite
def rewrites(draw, state):
    """Another raw state with ``state``'s oracle: any cycle, and any
    non-decreasing ready cycles up to that cycle for entries of age 0."""
    cycle, entries = state
    new_cycle = draw(st.integers(0, 40))
    expected = oracle(entries, cycle)
    zero = sum(1 for age, _shape in expected if age == 0)
    readies = sorted(draw(st.lists(st.integers(new_cycle - 6, new_cycle),
                                   min_size=zero, max_size=zero)))
    readies += [new_cycle + age for age, _shape in expected[zero:]]
    return new_cycle, [(ready, shape)
                       for ready, (_age, shape) in zip(readies, expected)]


@settings(max_examples=300, deadline=None)
@given(states(), states())
def test_keys_equal_exactly_when_oracles_equal(a, b):
    key_a = build(a[1]).key(a[0])
    key_b = build(b[1]).key(b[0])
    assert encodes(key_a, oracle(a[1], a[0]))
    assert (key_a == key_b) == (oracle(a[1], a[0]) == oracle(b[1], b[0]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_oracle_one_key(data):
    state = data.draw(states())
    cycle, entries = state
    other_cycle, other = data.draw(rewrites(state))
    assert oracle(other, other_cycle) == oracle(entries, cycle)
    assert build(other).key(other_cycle) == build(entries).key(cycle)
    if entries:
        # One entry later by a cycle, where that stays in order and
        # changes its clamped age, or one shape changed: another key.
        index = data.draw(st.integers(0, len(entries) - 1))
        ready, shape = entries[index]
        later = entries[:index] + [(ready + 1, shape)] + [
            (max(r, ready + 1), s) for r, s in entries[index + 1:]]
        if oracle(later, cycle) != oracle(entries, cycle):
            assert build(later).key(cycle) != build(entries).key(cycle)
        swapped = data.draw(st.sampled_from(
            [s for s in SHAPES if s != shape]))
        changed = entries[:index] + [(ready, swapped)] + entries[index + 1:]
        assert build(changed).key(cycle) != build(entries).key(cycle)


class Burst(Stage):
    """Emits the item it consumed ``item % 3`` times (0, 1 or 2)."""

    input_ports = ("in",)
    output_ports = ("out",)

    def fire(self, cycle, inputs):
        (item,) = inputs["in"]
        return {"out": [item] * (item % 3)} if item % 3 else {}


ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("tick"), st.integers(0, 8)),
    st.tuples(st.just("drain"), st.integers(0, 3)),
    st.tuples(st.just("commit"), st.integers(0, 9)),
    st.tuples(st.just("reset"), st.just(0)),
), max_size=40)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(1, 2), ACTIONS)
def test_a_stage_keeps_its_key_through_push_pop_commit_and_reset(
        latency, ii, actions):
    stage = Burst("burst", ii=ii, latency=latency)
    feed, out = Stream("feed", depth=64), Stream("out", depth=2)
    stage.bind_input("in", feed)
    stage.bind_output("out", out)
    cycle = 0
    item = 0

    def check():
        entries = [(ready, shape_of(produced))
                   for ready, produced, _sid in stage._pipeline]
        # Probe cycles before, at and after every ready cycle.
        probes = {cycle} | {r + d for r, _s in entries for d in (-1, 0, 1)}
        for probe in probes:
            key = stage.ff_signature(probe)[1]
            assert encodes(key, oracle(entries, probe)), (probe, entries)
            assert key == build(entries).key(probe)

    for action, amount in actions:
        if action == "tick":
            # Several firings and retirements may land between two keys.
            for _ in range(amount):
                if feed.can_push(1):
                    feed.push(item)
                    item += 1
                stage.tick(cycle)
                cycle += 1
        elif action == "drain":
            for _ in range(min(amount, out.occupancy)):
                out.pop()
        elif action == "commit":
            # A window of whole periods from ``cycle``: the entries in
            # flight keep their ages (overdue ones clamp to 0).
            stage.ff_commit(cycle, cycle + amount, fires=0, retired=0,
                            tail_outputs=stage.ff_pipeline_entries())
            cycle += amount
        else:
            stage.reset()
            while out.occupancy:
                out.pop()
            cycle = 0
        check()
