"""Acceptance: the shipped example specs are proved safe and exact.

For both paper deployments (``advection_u280.json`` and
``advection_stratix10.json``) the analyzer must prove deadlock-freedom
and predict the total cycle count the exact engine measures on the token
twin — byte for byte, no tolerance.  ``fig2_explicit.json``, the one
hand-written Fig. 2 left, must declare what the kernel's builder wires;
its spec stages emit one item per firing, so it is the unit-rate reading
of Fig. 2, and its total follows the unit-rate closed form where the
builder's graph, whose shift buffer forwards column-top pairs, does not.
"""

import pathlib

import pytest

from repro.analyze import analyze_graph, build_token_twin
from repro.core.grid import Grid
from repro.dataflow.engine import DataflowEngine
from repro.kernel.builder import build_structural_graph
from repro.kernel.config import KernelConfig
from repro.lint.spec import load_spec

from .conftest import unit_rate_total

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "graphs"
PAPER_SPECS = ["advection_u280.json", "advection_stratix10.json"]


@pytest.mark.parametrize("name", PAPER_SPECS + ["fig2_explicit.json"])
class TestExampleSpecs:
    def test_proved_deadlock_free_at_ideal_rate(self, name):
        target = load_spec(EXAMPLES / name)
        report = analyze_graph(target.context.graph)
        assert report.ok
        assert report.occupancy.stall_free
        assert report.schedule.ideal_period == 1
        period = report.occupancy.period
        assert period.cycles == period.tokens_per_period

    def test_predicted_total_matches_the_engine_exactly(self, name):
        target = load_spec(EXAMPLES / name)
        report = analyze_graph(target.context.graph)
        twin = build_token_twin(target.context.graph, report.tokens)
        stats = DataflowEngine(twin).run()
        assert report.schedule.total_cycles == stats.cycles

    def test_configured_depths_carry_headroom_not_waste(self, name):
        target = load_spec(EXAMPLES / name)
        report = analyze_graph(target.context.graph)
        verdicts = {s.verdict
                    for s in report.occupancy.streams.values()}
        assert verdicts <= {"ok", "exact"}


def test_only_the_unit_rate_reading_follows_the_closed_form():
    """At one token count, the explicit spec's stages emit one item per
    firing; the builder's shift buffer forwards a second bundle at every
    column top, which costs cycles without a single stall."""
    spec = load_spec(EXAMPLES / "fig2_explicit.json").context.graph
    built = load_spec(EXAMPLES / "advection_u280.json").context.graph
    unit, real = (analyze_graph(graph, 200) for graph in (spec, built))
    assert unit.schedule.total_cycles == unit_rate_total(unit.schedule)
    assert real.occupancy.stall_free
    assert real.schedule.total_cycles != unit_rate_total(real.schedule)


def test_both_paper_devices_prove_the_same_control_machine():
    """Same Fig. 2 graph shape on both devices: identical proofs."""
    reports = [analyze_graph(load_spec(EXAMPLES / name).context.graph)
               for name in PAPER_SPECS]
    assert (reports[0].schedule.total_cycles
            == reports[1].schedule.total_cycles)
    assert (reports[0].occupancy.minimal_depths()
            == reports[1].occupancy.minimal_depths())


def declared(graph) -> tuple[dict, dict]:
    """Per stage: ports, II, latency and FLOP declarations; per stream:
    its depth."""
    stages = {
        stage.name: (stage.input_ports, stage.output_ports, stage.ii,
                     stage.latency, getattr(stage, "flops_per_cell", None),
                     getattr(stage, "flops_per_cell_top", None))
        for stage in graph.stages}
    return stages, {stream.name: stream.depth for stream in graph.streams}


def test_explicit_fig2_example_is_the_builders_graph():
    spec = load_spec(EXAMPLES / "fig2_explicit.json").context.graph
    built = build_structural_graph(KernelConfig(grid=Grid(64, 64, 64)))
    assert declared(spec) == declared(built)
