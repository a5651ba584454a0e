"""A source over a NumPy array fires the items iterating it yields.

A scalar firing and a batched window of ``SourceStage`` must give the
same items, type and bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dataflow.stage import SourceStage
from repro.dataflow.stream import Stream

#: One-dimensional float or int arrays; floats include -0.0, NaN and
#: the infinities.
ARRAYS = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 40),
               elements=st.floats(allow_nan=True, allow_infinity=True)),
    hnp.arrays(np.int64, st.integers(1, 40)),
)


def scalar_items(source, count):
    """The first ``count`` items ``source`` fires, one a cycle: those
    it pushed, then those still in its pipeline."""
    out = Stream("out", depth=count + 1)
    source.bind_output("out", out)
    cycle = 0
    while source.stats.fires < count:
        source.tick(cycle)
        cycle += 1
    return ([out.pop() for _ in range(out.occupancy)]
            + [entry["out"][0] for entry in source.ff_pipeline_entries()])


def same_items(got, expected):
    return ([type(item) for item in got] == [type(item) for item in expected]
            and all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                    for a, b in zip(got, expected)))


@settings(max_examples=100, deadline=None)
@given(ARRAYS, st.data())
def test_a_window_yields_the_items_scalar_firings_emit(values, data):
    head = data.draw(st.integers(0, len(values) - 1))
    count = data.draw(st.integers(1, len(values) - head))
    expected = scalar_items(SourceStage("scalar", values), head + count)
    source = SourceStage("batched", values)
    assert same_items(scalar_items(source, head), expected[:head])
    bulk = source.fire_bulk(count, {}, 0).head_bulk("out", count)
    assert same_items(bulk.materialize(), expected[head:])
    assert same_items(bulk.materialize(), list(values[head:head + count]))
    assert source.ff_fire_capacity(len(values)) == len(values) - head - count
