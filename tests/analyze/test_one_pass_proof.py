"""One interpretation per proof whose FIFOs never fill.

``analyze_graph`` reuses the unbounded run as the bounded one when that
run is deadlock-free and no stream's high-water mark exceeds its depth:
no push is then ever refused, so the bounded machine takes the same
steps.  On drawn structural graphs, multi-rate and under-depth ones
included, the report must equal the one built from both runs, and the
bounded run must be interpreted exactly when it can differ.
"""

import contextlib
from typing import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analyze.report as report_module
from repro.analyze.interp import default_tokens, interpret
from repro.analyze.occupancy import build_occupancy_proof
from repro.analyze.report import AnalysisReport, analyze_graph
from repro.analyze.schedule import build_schedule
from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.lint.spec import SpecStage

from .conftest import fork_join_graph


class Burst(SpecStage):
    """A structural stage emitting ``counts`` items per output port on
    every firing."""

    def __init__(self, name: str, counts: tuple[int, ...], **kwargs) -> None:
        super().__init__(name, outputs=tuple(f"o{k}" for k in
                                             range(len(counts))), **kwargs)
        self._counts = counts

    def emits(self, firing: int) -> tuple[int, ...]:
        return self._counts


def two_pass(graph: DataflowGraph, tokens: int | None) -> AnalysisReport:
    """The report built from both runs, whatever they show."""
    if tokens is None:
        tokens = default_tokens(graph)
    unbounded = interpret(graph, tokens, bounded=False)
    bounded = interpret(graph, tokens)
    return AnalysisReport(
        graph_name=graph.name, tokens=tokens,
        occupancy=build_occupancy_proof(graph, bounded, unbounded),
        schedule=build_schedule(graph, bounded))


@contextlib.contextmanager
def interpretations() -> Iterator[list[bool]]:
    """The ``bounded`` flag of each run ``analyze_graph`` interprets
    while the block runs."""
    calls: list[bool] = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("bounded", True))
        return interpret(*args, **kwargs)

    report_module.interpret = counting
    try:
        yield calls
    finally:
        report_module.interpret = interpret


def never_fills(graph: DataflowGraph, tokens: int | None) -> bool:
    unbounded = interpret(graph, tokens, bounded=False)
    return unbounded.safe and all(
        unbounded.stream_high_water[stream.name] <= stream.depth
        for stream in graph.streams)


@st.composite
def structural_graphs(draw):
    """Layered DAGs of relays, some emitting two items on a port per
    firing, with depths from 1: some never fill a FIFO, some stall on
    one, some deadlock bounded (a burst wider than its FIFO) and some
    even unbounded (a join fed at two rates)."""
    graph = DataflowGraph("drawn")
    graph.add(Burst("src", (1,), latency=draw(st.integers(1, 3))))
    open_ports = ["src.o0"]
    for index in range(draw(st.integers(1, 4))):
        name = f"n{index}"
        counts = tuple(draw(st.lists(st.sampled_from([1, 1, 1, 2]),
                                     min_size=1, max_size=2)))
        graph.add(Burst(name, counts, inputs=("in",),
                        ii=draw(st.integers(1, 2)),
                        latency=draw(st.integers(1, 5))))
        endpoint = draw(st.sampled_from(open_ports))
        open_ports.remove(endpoint)
        stage, port = endpoint.split(".")
        graph.connect(stage, port, name, "in",
                      depth=draw(st.integers(1, 4)))
        open_ports.extend(f"{name}.o{k}" for k in range(len(counts)))
    graph.add(SpecStage("sink", inputs=tuple(
        f"i{k}" for k in range(len(open_ports)))))
    for k, endpoint in enumerate(open_ports):
        stage, port = endpoint.split(".")
        graph.connect(stage, port, "sink", f"i{k}",
                      depth=draw(st.integers(1, 4)))
    return graph, draw(st.one_of(st.none(), st.integers(0, 24)))


@settings(max_examples=80, deadline=None)
@given(structural_graphs())
def test_one_pass_report_equals_the_two_pass_one(params):
    graph, tokens = params
    report = analyze_graph(graph, tokens)
    assert report.to_dict() == two_pass(graph, tokens).to_dict()


@settings(max_examples=40, deadline=None)
@given(structural_graphs())
def test_the_bounded_run_is_interpreted_only_when_it_can_differ(params):
    graph, tokens = params
    with interpretations() as calls:
        analyze_graph(graph, tokens)
    assert calls == ([False] if never_fills(graph, tokens)
                     else [False, True])


def test_the_tuners_graphs_need_one_interpretation():
    for depth in (2, 4, 8):
        graph = build_structural_graph(KernelConfig(
            grid=Grid(64, 64, 64), chunk_width=8, stream_depth=depth))
        with interpretations() as calls:
            report = analyze_graph(graph)
        assert calls == [False]
        assert report.to_dict() == two_pass(graph, None).to_dict()
        assert max(report.occupancy.minimal_depths().values()) == 2


def test_an_under_depth_graph_falls_back_to_the_bounded_run():
    graph = fork_join_graph(fast_depth=2, slow_latency=20)
    with interpretations() as calls:
        report = analyze_graph(graph)
    assert calls == [False, True]
    assert report.occupancy.witness is not None
    assert report.occupancy.witness.kind == "backpressure"
    assert report.to_dict() == two_pass(graph, None).to_dict()


def test_an_unbounded_deadlock_keeps_the_real_depths():
    """A join fed two items on one input per item on the other is left
    holding tokens: it deadlocks however deep its FIFOs are, and the
    witness quotes the configured depths, never the unbounded run's."""
    graph = DataflowGraph("rates")
    graph.add(Burst("src", (1, 2), latency=1))
    graph.add(SpecStage("join", inputs=("a", "b")))
    graph.connect("src", "o0", "join", "a", depth=3)
    graph.connect("src", "o1", "join", "b", depth=5)
    assert not interpret(graph, bounded=False).safe
    with interpretations() as calls:
        report = analyze_graph(graph)
    assert calls == [False, True]
    witness = report.occupancy.witness
    assert witness is not None and witness.kind == "deadlock"
    assert ({name: depth for name, (_, depth) in witness.streams.items()}
            == {stream.name: stream.depth for stream in graph.streams})
    assert report.to_dict() == two_pass(graph, None).to_dict()
