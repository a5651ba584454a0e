"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.device == "u280"
        assert args.cells == "16M"
        assert not args.no_overlap


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate", "--nx", "4", "--ny", "5", "--nz", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK (bitwise)") == 4


class TestRun:
    def test_run_overlapped(self, capsys):
        assert main(["run", "--device", "u280", "--cells", "16M"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS overall" in out
        assert "engine timeline" in out
        assert "memory=hbm2" in out

    def test_run_sequential_ddr(self, capsys):
        assert main(["run", "--device", "u280", "--cells", "16M",
                     "--no-overlap", "--memory", "ddr"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "memory=ddr" in out

    def test_run_cpu(self, capsys):
        assert main(["run", "--device", "cpu", "--cells", "16M"]) == 0
        out = capsys.readouterr().out
        assert "Xeon" in out

    def test_unknown_size_is_error(self, capsys):
        assert main(["run", "--cells", "12M"]) == 2

    def test_capacity_error_reported(self, capsys):
        assert main(["run", "--device", "v100", "--cells", "536M"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDevices:
    def test_catalog_printed(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "6 kernels fit" in out
        assert "5 kernels fit" in out
        assert "V100" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "paper-vs-measured" in out


class TestScorecard:
    def test_scorecard_passes(self, capsys, tmp_path):
        json_path = tmp_path / "summary.json"
        assert main(["scorecard", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "ordering claims" in out
        assert json_path.exists()

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["scorecard", "--tolerance", "0.0001"]) == 1


class TestReport:
    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", str(path)]) == 0
        assert path.read_text().startswith("# Reproduction report")


class TestTraceOption:
    def test_run_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["run", "--device", "u280", "--cells", "16M",
                     "--trace", str(trace)]) == 0
        assert trace.exists()
        assert "chrome://tracing" in capsys.readouterr().out


class TestSimulateCommand:
    def test_starved_multi_kernel_run_prints_the_fallback_reason(
            self, capsys):
        assert main(["simulate", "--nx", "8", "--ny", "6", "--nz", "4",
                     "--chunk-width", "3", "--kernels", "2",
                     "--memory-rate", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "starved)" in out
        assert "fallback: stage 'k0.read_data' vetoed" in out


class TestTraceCommand:
    def test_trace_writes_merged_file(self, capsys, tmp_path):
        out = tmp_path / "merged.json"
        assert main(["trace", "--nx", "8", "--ny", "12", "--nz", "6",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "wrote chrome://tracing / Perfetto file" in text
        import json

        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert {e["pid"] for e in events} == {1, 2}
        cats = {e.get("cat") for e in events}
        assert "chunk" in cats and "stage" in cats  # engine spans
        assert "pcie_h2d" in cats  # schedule transfers

    def test_trace_exact_mode(self, capsys, tmp_path):
        out = tmp_path / "exact.json"
        assert main(["trace", "--nx", "6", "--ny", "9", "--nz", "5",
                     "--mode", "exact", "--chunk-width", "4",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_trace_unknown_device_is_error(self, capsys, tmp_path):
        assert main(["trace", "--nx", "6", "--ny", "9", "--nz", "5",
                     "--device", "nosuch",
                     "--out", str(tmp_path / "t.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestMetricsCommand:
    def test_metrics_text_report(self, capsys):
        assert main(["metrics", "--nx", "6", "--ny", "9", "--nz", "5"]) == 0
        text = capsys.readouterr().out
        assert "ops/cycle:" in text
        assert "theoretical" in text
        assert "engine_cycles" in text  # registry dump rides along

    def test_metrics_json_with_clock(self, capsys):
        assert main(["metrics", "--nx", "6", "--ny", "9", "--nz", "5",
                     "--clock-mhz", "300", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"] == [6, 9, 5]
        assert payload["ops_per_cycle"]["achieved_ops_per_cycle"] > 0
        assert payload["achieved_gflops"] > 0
        assert "engine_cycles" in payload["metrics"]

    def test_metrics_default_grid_reports_62_875(self, capsys):
        # nz=64 is the paper's column height; only check the theoretical
        # figure, the run itself would be slow at the full 64^3.
        assert main(["metrics", "--nx", "6", "--ny", "6", "--nz", "64",
                     "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        theory = payload["ops_per_cycle"]["theoretical_ops_per_cycle"]
        assert theory == 62.875


class TestServeCommand:
    ARGS = ["serve", "--jobs", "6", "--rate", "400", "--nx", "6",
            "--ny", "9", "--nz", "5"]

    def test_serve_text_report(self, capsys):
        assert main(self.ARGS) == 0
        text = capsys.readouterr().out
        assert "jobs" in text
        assert "p99" in text

    def test_serve_json_report(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 6
        assert payload["failed"] == 0
        assert payload["fleet"]["lanes"]
        assert payload["invariant_ok"] is None  # no chaos leg requested

    def test_serve_chaos_upholds_invariant(self, capsys):
        assert main(self.ARGS + ["--chaos", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_ok"] is True

    def test_serve_writes_trace_and_metrics(self, capsys, tmp_path):
        out = tmp_path / "serve-trace.json"
        assert main(self.ARGS + ["--trace", str(out), "--metrics"]) == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "serve_jobs_total" in text

    def test_serve_bad_fleet_is_error(self, capsys):
        assert main(["serve", "--fleet", "2*u280"]) == 1
        assert "error:" in capsys.readouterr().err
