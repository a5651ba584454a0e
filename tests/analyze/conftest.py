"""Shared structural graphs for the static-verifier tests."""

from repro.analyze import StaticSchedule
from repro.dataflow.graph import DataflowGraph
from repro.lint.spec import SpecStage


def unit_rate_total(schedule: StaticSchedule) -> int:
    """The stall-free total of a graph of unit-rate stages, in closed
    form: the drain stage's first fire, one ideal period per further
    token, and the engine's two quiescence cycles (1 for an empty run:
    the immediate-quiescence cycle).  An oracle for spec graphs only:
    a stage that emits other than one item per firing moves the total
    off it without a stall."""
    if schedule.tokens <= 0:
        return 1
    return (schedule.prime_latency
            + (schedule.tokens - 1) * schedule.ideal_period + 2)


def chain_graph(n_stages: int = 3, *, latency: int = 2, ii: int = 1,
                depth: int = 4) -> DataflowGraph:
    """src -> s0 -> ... -> sink, all unit rate."""
    graph = DataflowGraph("chain")
    graph.add(SpecStage("src", outputs=("out",), latency=1))
    previous = "src"
    for index in range(n_stages):
        name = f"s{index}"
        graph.add(SpecStage(name, inputs=("in",), outputs=("out",),
                            ii=ii, latency=latency))
        graph.connect(previous, "out", name, "in", depth=depth)
        previous = name
    graph.add(SpecStage("sink", inputs=("in",)))
    graph.connect(previous, "out", "sink", "in", depth=depth)
    return graph


def fork_join_graph(*, fast_depth: int = 2, slow_latency: int = 20,
                    depth: int = 2) -> DataflowGraph:
    """src -> fork -> {direct a, slow b} -> join -> sink.

    With ``fast_depth`` well below ``slow_latency`` the direct branch
    fills and backpressures the fork: the canonical under-depth
    reconvergence the prover must flag as throughput collapse.
    """
    graph = DataflowGraph("forkjoin")
    graph.add(SpecStage("src", outputs=("out",), latency=1))
    graph.add(SpecStage("fork", inputs=("in",), outputs=("a", "b"),
                        latency=1))
    graph.add(SpecStage("slow", inputs=("in",), outputs=("out",),
                        latency=slow_latency))
    graph.add(SpecStage("join", inputs=("a", "b"), outputs=("out",),
                        latency=1))
    graph.add(SpecStage("sink", inputs=("in",)))
    graph.connect("src", "out", "fork", "in", depth=depth)
    graph.connect("fork", "a", "join", "a", depth=fast_depth)
    graph.connect("fork", "b", "slow", "in", depth=depth)
    graph.connect("slow", "out", "join", "b", depth=depth)
    graph.connect("join", "out", "sink", "in", depth=depth)
    return graph
