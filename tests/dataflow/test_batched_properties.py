"""Property suite: batched exact equals scalar exact on random DAGs.

Random layered DAGs (the same strategy the analyzer proofs are tested
on) are lowered to engine-runnable token twins and run twice — forced
scalar and batched exact.  Everything observable must match
byte-for-byte: the full :meth:`RunStats.to_dict` payload (minus the
engine's own batching accounting), per-stream push/pop/occupancy state,
relay outputs, strided tracer samples, and fault traces.  Fault plans
and tracer sample strides are layered on top to force mid-run scalar
fallback windows, so the re-entry paths get the same adversarial
coverage as the steady state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import build_token_twin
from repro.dataflow.engine import DataflowEngine
from repro.errors import DataflowError, FaultError
from repro.faults import FaultPlan, FaultSpec
from repro.observe import Tracer
from tests.analyze.test_properties import random_dag
from tests.dataflow.test_batched_exact import (
    assert_windows_between_samples,
    sampled_cycles,
)


def _strip_batching(stats):
    payload = stats.to_dict()
    for key in ("batched_windows", "batched_cycles",
                "batch_fallback_reason"):
        payload.pop(key)
    return payload


def _machine_state(graph):
    return {
        stream.name: (stream.stats.pushes, stream.stats.pops,
                      stream.occupancy, stream.stats.max_occupancy)
        for stream in graph.streams
    }


def run_pair(spec_graph, tokens, *, plan_factory=None, sample_every=None,
             **engine_kwargs):
    """Run the token twin scalar and batched; return both (stats, twin,
    plan, tracer, error) tuples.  Each leg gets its own twin, plan and
    tracer — the graphs and plans are stateful."""
    results = []
    for batched in (False, True):
        twin = build_token_twin(spec_graph, tokens)
        plan = plan_factory() if plan_factory is not None else None
        tracer = (Tracer(sample_every=sample_every)
                  if sample_every is not None else None)
        engine = DataflowEngine(twin, mode="exact", batched=batched,
                                fault_plan=plan, tracer=tracer,
                                **engine_kwargs)
        # A dropped word may starve a fan-in consumer outright: the run
        # then dies as a deadlock (DataflowError), not a FaultError.
        # Either way both modes must fail identically.
        try:
            stats, error = engine.run(), None
        except (FaultError, DataflowError) as exc:
            stats, error = None, exc
        results.append((stats, twin, plan, tracer, error))
    return results


def assert_pair_identical(scalar, batched):
    stats_s, twin_s, plan_s, tracer_s, err_s = scalar
    stats_b, twin_b, plan_b, tracer_b, err_b = batched
    # Same outcome: both completed, or both failed identically.
    assert (err_b is None) == (err_s is None)
    if err_s is not None:
        assert type(err_b) is type(err_s)
        assert str(err_b) == str(err_s)
    else:
        assert _strip_batching(stats_b) == _strip_batching(stats_s)
    assert _machine_state(twin_b) == _machine_state(twin_s)
    if plan_s is not None:
        assert plan_b.trace_key() == plan_s.trace_key()
    if tracer_s is not None:
        assert tracer_b.counters == tracer_s.counters
        assert_windows_between_samples(tracer_b)


@settings(max_examples=50, deadline=None)
@given(random_dag())
def test_batched_equals_scalar_on_random_dags(params):
    graph, tokens = params
    scalar, batched = run_pair(graph, tokens)
    assert_pair_identical(scalar, batched)


@settings(max_examples=30, deadline=None)
@given(random_dag(), st.integers(0, 2**16))
def test_batched_equals_scalar_under_fifo_faults(params, seed):
    graph, tokens = params
    scalar, batched = run_pair(
        graph, tokens,
        plan_factory=lambda: FaultPlan(
            [FaultSpec(site="fifo", kind="drop", match="*",
                       probability=0.01, count=2)], seed=seed))
    assert_pair_identical(scalar, batched)


@settings(max_examples=30, deadline=None)
@given(random_dag(), st.integers(0, 2**16))
def test_batched_equals_scalar_under_corrupt_faults(params, seed):
    graph, tokens = params
    scalar, batched = run_pair(
        graph, tokens,
        plan_factory=lambda: FaultPlan(
            [FaultSpec(site="fifo", kind="corrupt", match="*",
                       probability=0.02, count=1)], seed=seed))
    assert_pair_identical(scalar, batched)


@settings(max_examples=30, deadline=None)
@given(random_dag(), st.integers(1, 30), st.integers(1, 6))
def test_batched_equals_scalar_under_stage_freezes(params, at_cycle,
                                                   cycles):
    # A freeze window forces scalar ticking across its boundaries and a
    # re-entry into batching afterwards; the generous grace keeps the
    # deadlock guard out of the way of long freezes.
    graph, tokens = params
    scalar, batched = run_pair(
        graph, tokens, stall_grace=200,
        plan_factory=lambda: FaultPlan(
            [FaultSpec(site="stage", kind="freeze", match="l0n0",
                       at_cycle=at_cycle, cycles=cycles)]))
    assert_pair_identical(scalar, batched)


@settings(max_examples=30, deadline=None)
@given(random_dag(), st.integers(2, 40))
def test_batched_equals_scalar_under_strided_monitors(params, stride):
    # Every sample cycle must tick scalar; windows live in the gaps.
    graph, tokens = params
    scalar, batched = run_pair(graph, tokens, sample_every=stride)
    assert_pair_identical(scalar, batched)
    stats, _, _, tracer, _ = batched
    if stats is not None:
        assert sampled_cycles(tracer) == list(range(0, stats.cycles, stride))
