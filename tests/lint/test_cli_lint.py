"""The `repro lint` CLI: exit codes, JSON schema, spec loading.

Includes the acceptance fixture from the linter's design brief: one
deliberately broken spec (unconnected port, over-budget kernel count, bad
chunk width) must produce at least three distinct diagnostic codes in a
single invocation and exit non-zero, while the example specs shipped under
examples/graphs/ must lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, LintError
from repro.lint.spec import load_spec

EXAMPLES = sorted(
    str(p) for p in (Path(__file__).resolve().parents[2]
                     / "examples" / "graphs").glob("*.json")
)

BROKEN_SPEC = {
    "name": "deliberately-broken",
    "device": "u280",
    "num_kernels": 7,            # RS201: one over the paper's U280 limit
    "kernel": {
        "cells": "16M",
        "chunk_width": 1,        # KC100: planner rejects width <= halo
    },
    "graph": {
        "stages": [
            {"name": "read", "outputs": ["out"]},
            {"name": "sink", "inputs": ["a", "b"]},   # DF001: b dangles
        ],
        "streams": [
            {"src": "read.out", "dst": "sink.a", "depth": 4},
        ],
    },
}


@pytest.fixture
def broken_spec(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_SPEC))
    return str(path)


class TestAcceptance:
    def test_examples_exist(self):
        assert len(EXAMPLES) >= 2

    def test_example_specs_lint_clean(self, capsys):
        assert main(["lint", *EXAMPLES]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_broken_spec_reports_three_codes_and_fails(self, capsys,
                                                       broken_spec):
        assert main(["lint", "--json", broken_spec]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        (report,) = payload["reports"]
        codes = set(report["summary"]["codes"])
        assert len(codes) >= 3
        assert "DF001" in codes   # graph family
        assert "RS201" in codes   # resource family
        assert "KC100" in codes   # chunking family (invalid geometry)


class TestJsonSchema:
    def test_report_schema(self, capsys, broken_spec):
        main(["lint", "--json", broken_spec])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ok", "reports"}
        (report,) = payload["reports"]
        assert report["subject"] == "deliberately-broken"
        summary = report["summary"]
        assert set(summary) == {"errors", "warnings", "infos", "codes", "ok"}
        assert summary["errors"] >= 2 and summary["ok"] is False
        for diag in report["diagnostics"]:
            assert set(diag) == {"code", "severity", "message", "location",
                                 "hint", "rule", "family"}
            assert diag["severity"] in ("error", "warning", "info")
            assert diag["family"] is not None

    def test_diagnostics_sorted_by_code_location_message(self, capsys,
                                                         broken_spec):
        main(["lint", "--json", broken_spec])
        payload = json.loads(capsys.readouterr().out)
        keys = [(d["code"], d["location"] or "", d["message"])
                for d in payload["reports"][0]["diagnostics"]]
        assert keys == sorted(keys)


class TestFlagDrivenLint:
    def test_paper_deployments_pass(self, capsys):
        assert main(["lint", "--device", "u280", "--kernels", "6"]) == 0
        assert main(["lint", "--device", "stratix10", "--kernels", "5"]) == 0

    def test_over_budget_kernel_count_fails(self, capsys):
        assert main(["lint", "--device", "u280", "--kernels", "7"]) == 1
        assert "RS201" in capsys.readouterr().out
        assert main(["lint", "--device", "stratix10", "--kernels", "6"]) == 1

    def test_explicit_grid_flags(self, capsys):
        assert main(["lint", "--nx", "8", "--ny", "64", "--nz", "8"]) == 0

    def test_partial_grid_flags_are_an_error(self, capsys):
        assert main(["lint", "--nx", "8"]) == 2
        assert "together" in capsys.readouterr().err

    def test_strict_promotes_warnings(self, capsys):
        # Width 4 is legal but below the burst-efficiency floor (KC106).
        argv = ["lint", "--chunk-width", "4", "--ignore", "RS"]
        assert main(argv) == 0
        assert main([*argv, "--strict"]) == 1

    def test_select_and_ignore(self, capsys):
        assert main(["lint", "--device", "u280", "--kernels", "7",
                     "--ignore", "RS201"]) == 0
        assert main(["lint", "--device", "u280", "--kernels", "7",
                     "--select", "graph"]) == 0

    @pytest.mark.parametrize("argv,pattern", [
        (["--device", "u280", "--kernels", "7", "--ignore", "KC108,"], ""),
        (["--select", "ZZ"], "ZZ"),
        (["--select", "RS201,ZZ9"], "ZZ9"),
        (["--select", "SA4O1", *EXAMPLES], "SA4O1"),
        (["--backend", "versal_aie", "--nx", "64", "--ny", "64",
          "--nz", "64", "--ignore", "BK2O2"], "BK2O2"),
        (["--scenario", "diffusion", "--select", "analysys"], "analysys"),
    ], ids=["empty-after-comma", "unknown-prefix", "one-of-two",
            "typo-on-specs", "backend", "scenario"])
    def test_unmatched_filter_is_an_input_error(self, argv, pattern,
                                                capsys):
        assert main(["lint", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unmatched lint filter")
        assert f"{pattern!r}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_fpga_device_is_usage_error(self, capsys):
        assert main(["lint", "--device", "cpu"]) == 2
        assert "not an FPGA" in capsys.readouterr().err

    def test_list_rules_prints_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DF001", "KC101", "RS201", "AC301"):
            assert code in out


class TestSpecLoading:
    def test_invalid_json_is_lint_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintError, match="not valid JSON"):
            load_spec(bad)
        assert main(["lint", str(bad)]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kernel": {"cells": "16M"},
                                    "frobnicate": 1}))
        with pytest.raises(LintError, match="unknown spec keys"):
            load_spec(path)

    def test_unknown_size_label_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kernel": {"cells": "12M"}}))
        with pytest.raises(LintError, match="unknown size"):
            load_spec(path)

    def test_bad_stream_endpoint_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"graph": {
            "stages": [{"name": "a", "outputs": ["out"]}],
            "streams": [{"src": "a", "dst": "a.out"}],
        }}))
        with pytest.raises(LintError, match="stage.port"):
            load_spec(path)

    def test_spec_name_defaults_to_filename(self, tmp_path):
        path = tmp_path / "mydesign.json"
        path.write_text(json.dumps({"kernel": {"cells": "16M"}}))
        assert load_spec(path).name == "mydesign"


PAPER_KERNEL = {"kernel": {"cells": "16M"}, "device": "u280"}


def explicit_graph(stage=None, stream=None):
    """The paper kernel with a two-stage graph, one entry of it patched."""
    return {**PAPER_KERNEL, "graph": {
        "stages": [{"name": "read", "outputs": ["out"], **(stage or {})},
                   {"name": "sink", "inputs": ["in"]}],
        "streams": [{"src": "read.out", "dst": "sink.in", **(stream or {})}],
    }}


MALFORMED_SPECS = {
    "num_kernels-string": {**PAPER_KERNEL, "num_kernels": "six"},
    "read_ii-string": {**PAPER_KERNEL, "read_ii": "x"},
    "chunk_width-string": {"kernel": {"cells": "16M", "chunk_width": "abc"},
                           "device": "u280"},
    "grid-string": {"kernel": {"grid": {"nx": "a", "ny": 8, "nz": 8}},
                    "device": "u280"},
    "grid-zero": {"kernel": {"grid": {"nx": 0, "ny": 8, "nz": 8}},
                  "device": "u280"},
    "outputs-integer": explicit_graph(stage={"outputs": 5}),
    "flops_per_cell-string": explicit_graph(stage={"flops_per_cell": "x"}),
    "partitioned-string": {"kernel": {"cells": "16M", "partitioned": "no"},
                           "device": "u280"},
    "num_kernels-zero": {**PAPER_KERNEL, "num_kernels": 0},
    "num_kernels-negative": {**PAPER_KERNEL, "num_kernels": -2},
    "stage-ii-zero": explicit_graph(stage={"ii": 0}),
    "stream-depth-zero": explicit_graph(stream={"depth": 0}),
    "stream-to-unknown-stage": explicit_graph(stream={"dst": "nowhere.in"}),
}


class TestMalformedSpecs:
    """A malformed spec is a typed input error: exit 2 with an ``error:``
    line.  ``main`` runs in-process, so an exception escaping it (what
    would print a traceback) fails the test."""

    @pytest.mark.parametrize("command", ["lint", "analyze"])
    @pytest.mark.parametrize("spec", list(MALFORMED_SPECS.values()),
                             ids=list(MALFORMED_SPECS))
    def test_exits_two_with_an_error_line(self, command, spec, tmp_path,
                                          capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(spec))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_zero_kernels_flag_is_a_configuration_error(self, capsys):
        # As `simulate --kernels 0`: an input error, exit 2.
        assert main(["lint", "--kernels", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "num_kernels" in err
        assert "Traceback" not in err

    def test_lint_kernel_rejects_zero_kernels(self):
        from repro.core.grid import Grid
        from repro.hardware import device_by_name
        from repro.kernel.config import KernelConfig
        from repro.lint.runner import lint_kernel

        config = KernelConfig(grid=Grid(nx=8, ny=64, nz=8))
        with pytest.raises(ConfigurationError, match="num_kernels"):
            lint_kernel(config, device_by_name("u280"), 0)
