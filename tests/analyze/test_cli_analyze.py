"""The ``repro analyze`` command: text/JSON output, --check, --fix-depths."""

import json
import pathlib

import pytest

from repro.cli import main

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "graphs"

UNDERDEPTH_SPEC = {
    "name": "underdepth-forkjoin",
    "graph": {
        "stages": [
            {"name": "src", "outputs": ["out"], "latency": 1},
            {"name": "fork", "inputs": ["in"], "outputs": ["a", "b"],
             "latency": 1},
            {"name": "slow", "inputs": ["in"], "outputs": ["out"],
             "latency": 20},
            {"name": "join", "inputs": ["a", "b"], "outputs": ["out"],
             "latency": 1},
            {"name": "sink", "inputs": ["in"]},
        ],
        "streams": [
            {"src": "src.out", "dst": "fork.in", "depth": 2},
            {"src": "fork.a", "dst": "join.a", "depth": 2},
            {"src": "fork.b", "dst": "slow.in", "depth": 2},
            {"src": "slow.out", "dst": "join.b", "depth": 2},
            {"src": "join.out", "dst": "sink.in", "depth": 2},
        ],
    },
}


@pytest.fixture
def underdepth_path(tmp_path):
    path = tmp_path / "underdepth.json"
    path.write_text(json.dumps(UNDERDEPTH_SPEC))
    return path


class TestTextMode:
    def test_example_spec_is_proved_safe(self, capsys):
        assert main(["analyze",
                     str(EXAMPLES / "advection_u280.json")]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free (proved), stall-free" in out
        # One plane of the structural graph's 3 x 4 x 3 shift buffer.
        assert "proved period: 12 cycle(s) / 12 token(s)" in out

    def test_check_cross_verifies_against_the_engine(self, capsys):
        assert main(["analyze", "--check",
                     str(EXAMPLES / "advection_stratix10.json")]) == 0
        assert "[MATCH]" in capsys.readouterr().out

    def test_flag_fallback_builds_the_advection_graph(self, capsys):
        assert main(["analyze", "--nx", "6", "--ny", "9", "--nz", "5",
                     "--chunk-width", "4"]) == 0
        assert "graph 'advection'" in capsys.readouterr().out

    def test_underdepth_spec_fails_with_a_witness(self, capsys,
                                                  underdepth_path):
        assert main(["analyze", str(underdepth_path)]) == 1
        out = capsys.readouterr().out
        assert "throughput collapse (proved)" in out
        assert "backpressure witness" in out
        assert "[under]" in out


class TestJsonMode:
    def test_payload_shape(self, capsys):
        assert main(["analyze", "--json", "--check",
                     str(EXAMPLES / "advection_u280.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        (report,) = payload["reports"]
        assert report["check"] is True
        assert report["engine_cycles"] == report["schedule"]["total_cycles"]
        assert report["occupancy"]["minimal_depths"]

    def test_underdepth_json_is_not_ok(self, capsys, underdepth_path):
        assert main(["analyze", "--json", str(underdepth_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        (report,) = payload["reports"]
        assert report["occupancy"]["throughput_collapsed"] is True
        assert report["safe"] is True  # completes, just collapsed


class TestFixDepths:
    def test_patch_round_trip_passes_analyzer_and_engine(
            self, capsys, tmp_path, underdepth_path):
        fixed = tmp_path / "fixed.json"
        assert main(["analyze", str(underdepth_path),
                     "--fix-depths", str(fixed)]) == 1
        capsys.readouterr()
        patched = json.loads(fixed.read_text())
        by_name = {f"{s['src']}->{s['dst']}": s["depth"]
                   for s in patched["graph"]["streams"]}
        assert by_name["fork.a->join.a"] == 21
        # The patched spec passes the analyzer AND the engine cross-check.
        assert main(["analyze", "--check", "--strict", str(fixed)]) == 0
        out = capsys.readouterr().out
        assert "stall-free" in out and "[MATCH]" in out

    def test_fix_depths_requires_exactly_one_spec(self, capsys, tmp_path):
        assert main(["analyze", "--fix-depths", str(tmp_path / "out.json"),
                     str(EXAMPLES / "advection_u280.json"),
                     str(EXAMPLES / "advection_stratix10.json")]) == 2
        assert "exactly one spec" in capsys.readouterr().err

    def test_derived_graph_spec_patches_the_scalar_depth(
            self, capsys, tmp_path):
        fixed = tmp_path / "fixed.json"
        assert main(["analyze", str(EXAMPLES / "advection_u280.json"),
                     "--fix-depths", str(fixed)]) == 0
        capsys.readouterr()
        patched = json.loads(fixed.read_text())
        # The shift buffer's column-top pair needs two slots.
        assert patched["kernel"]["stream_depth"] == 2


class TestStrict:
    def test_rate_matched_stalls_fail_only_under_strict(self, capsys,
                                                        tmp_path):
        # A unit-rate source backpressured by an II-2 consumer: the FIFO
        # fills and the producer stalls, but the sustained rate equals
        # the ideal period (gated by the II, not the depths) — ok
        # normally, rejected under --strict.
        spec = {
            "name": "rate-matched",
            "graph": {
                "stages": [
                    {"name": "src", "outputs": ["out"], "latency": 1},
                    {"name": "slow", "inputs": ["in"], "outputs": ["out"],
                     "ii": 2, "latency": 1},
                    {"name": "sink", "inputs": ["in"]},
                ],
                "streams": [
                    {"src": "src.out", "dst": "slow.in", "depth": 2},
                    {"src": "slow.out", "dst": "sink.in", "depth": 2},
                ],
            },
        }
        path = tmp_path / "transient.json"
        path.write_text(json.dumps(spec))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "transient stalls" in out
        assert main(["analyze", "--strict", str(path)]) == 1


class TestUsageErrors:
    def test_spec_without_graph_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "nograph.json"
        path.write_text(json.dumps({"name": "n", "device": "u280"}))
        assert main(["analyze", str(path)]) == 2
        assert "declares no dataflow graph" in capsys.readouterr().err

    def test_partial_grid_flags_are_rejected(self, capsys):
        assert main(["analyze", "--nx", "6"]) == 2
        assert "together" in capsys.readouterr().err

    def test_unknown_cells_label_is_rejected(self, capsys):
        assert main(["analyze", "--cells", "999Z"]) == 2
        assert "unknown size" in capsys.readouterr().err

    def test_bad_spec_json_is_a_lint_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"graph\": {\"stages\": [{}]}}")
        assert main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
