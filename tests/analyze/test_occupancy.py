"""Occupancy prover: minimal depths, collapse verdicts, witnesses."""

from repro.analyze import analyze_graph
from repro.analyze.occupancy import OVERPROVISION_SLACK

from .conftest import chain_graph, fork_join_graph


class TestSafeGraphs:
    def test_chain_is_proved_safe_and_stall_free(self):
        proof = analyze_graph(chain_graph(3)).occupancy
        assert proof.safe and proof.stall_free
        assert not proof.throughput_collapsed
        assert proof.witness is None
        assert proof.overhead_cycles == 0

    def test_minimal_depths_are_one_on_a_unit_rate_chain(self):
        proof = analyze_graph(chain_graph(3)).occupancy
        assert set(proof.minimal_depths().values()) == {1}

    def test_verdicts_on_a_wellsized_chain(self):
        proof = analyze_graph(chain_graph(2, depth=4)).occupancy
        # depth 4 vs min_safe 1: within the overprovision slack.
        assert all(s.verdict == "ok" for s in proof.streams.values())

    def test_overprovisioned_depth_is_called_out(self):
        deep = OVERPROVISION_SLACK + 10
        proof = analyze_graph(chain_graph(2, depth=deep)).occupancy
        assert all(s.verdict == "over" for s in proof.streams.values())


class TestUnderDepthForkJoin:
    def test_collapse_is_proved_with_a_witness(self):
        proof = analyze_graph(
            fork_join_graph(fast_depth=2, slow_latency=20)).occupancy
        assert proof.safe  # completes — marked-graph liveness
        assert not proof.stall_free
        assert proof.throughput_collapsed
        assert proof.witness is not None
        assert proof.witness.kind == "backpressure"
        assert proof.overhead_cycles > 0

    def test_min_safe_is_the_latency_skew(self):
        proof = analyze_graph(
            fork_join_graph(fast_depth=2, slow_latency=20)).occupancy
        fast = proof.streams["fork.a->join.a"]
        assert fast.verdict == "under"
        assert fast.min_safe == 21
        assert proof.minimal_depths()["fork.a->join.a"] == 21

    def test_root_cause_is_isolated_to_the_under_stream(self):
        proof = analyze_graph(
            fork_join_graph(fast_depth=2, slow_latency=20)).occupancy
        under = [name for name, s in proof.streams.items()
                 if s.verdict == "under"]
        assert under == ["fork.a->join.a"]
        # Upstream FIFOs cascade full (src blocks behind the fork) but
        # are not themselves under-provisioned.
        src_stream = proof.streams["src.out->fork.in"]
        assert src_stream.full_stalls > 0 and src_stream.verdict != "under"

    def test_fixing_the_depths_restores_the_ideal_rate(self):
        bad = analyze_graph(
            fork_join_graph(fast_depth=2, slow_latency=20)).occupancy
        fixed_graph = fork_join_graph(fast_depth=bad.minimal_depths()[
            "fork.a->join.a"], slow_latency=20)
        good = analyze_graph(fixed_graph).occupancy
        assert good.stall_free and not good.throughput_collapsed
        assert good.period is not None
        assert good.period.cycles == good.period.tokens_per_period


class TestProofObject:
    def test_to_dict_schema(self):
        proof = analyze_graph(fork_join_graph(fast_depth=2)).occupancy
        data = proof.to_dict()
        assert set(data) == {
            "graph", "tokens", "safe", "stall_free",
            "throughput_collapsed", "bounded_cycles", "unbounded_cycles",
            "overhead_cycles", "ideal_period", "deadlock", "first_stall",
            "period", "streams", "minimal_depths",
        }
        for record in data["streams"].values():
            assert set(record) == {"name", "depth", "min_safe",
                                   "high_water", "full_stalls", "verdict"}

    def test_proof_is_token_count_independent(self):
        small = analyze_graph(fork_join_graph(fast_depth=2), 120).occupancy
        large = analyze_graph(fork_join_graph(fast_depth=2), 500).occupancy
        assert small.minimal_depths() == large.minimal_depths()
        assert (small.throughput_collapsed
                == large.throughput_collapsed is True)
        assert small.period.cycles == large.period.cycles
