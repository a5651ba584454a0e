"""Checks of the wall-clock benchmark itself.

Run with ``pytest benchmarks/wallclock`` (outside the tier-1 suite).
The smoke runs use tiny inputs and one child per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    """The benchmark command, as run from the root of a checkout."""
    return subprocess.run(
        [sys.executable, "benchmarks/wallclock/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = tmp_path_factory.mktemp("smoke")
    plain = _run("--smoke", "--out", str(out / "results.json"))
    traced = _run("--smoke", "--trace", "1", "--trace-dir", str(out))
    return {"plain": plain, "traced": traced, "dir": out}


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_declared_metric_is_emitted_with_its_unit(smoke: dict) -> None:
    spec = run.load_spec()
    for mode, declared in (("plain", spec["end_to_end"]),
                           ("traced", spec["per_layer"])):
        proc = smoke[mode]
        assert proc.returncode == 0
        line = _last_json(proc)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        for workload in spec["workloads"]:
            for metric in declared:
                key = f"{workload['name']}.{metric['name']}"
                assert line["metrics"][key]["unit"] == metric["unit"], key
                assert isinstance(line["metrics"][key]["value"], (int, float))
        assert len(line["metrics"]) == len(spec["workloads"]) * len(declared)


def test_wrong_reference_flips_failed_frac_and_exit_code(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    monkeypatch.syspath_prepend(str(run.SRC))
    from repro.core import reference

    original = reference.advect_reference

    def wrong_reference(*args, **kwargs):
        sources = original(*args, **kwargs)
        sources.su[2, 2, 2] += 1.0
        return sources

    monkeypatch.setattr(reference, "advect_reference", wrong_reference)
    monkeypatch.setattr(run, "spawn_child", run.run_child)
    out = tmp_path / "results.json"
    code = run.main(["--smoke", "--workload", "simulate-64",
                     "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["simulate-64"]
    assert code == 1
    assert entry["failed"] == 1
    assert entry["metrics"]["failed_frac"]["median"] == pytest.approx(0.5)
    assert "advect_reference" in entry["failures"][0]


def test_trace_self_times_sum_to_wall_time(smoke: dict) -> None:
    for workload in run.load_spec()["workloads"]:
        trace = json.loads(
            (smoke["dir"] / f"trace-{workload['name']}.json").read_text())
        spans = [event for event in trace["traceEvents"]
                 if event["ph"] == "X"]
        assert [span["name"] for span in spans if span["args"]["parent"]
                is None] == ["root"]
        accounted = sum(
            span["args"]["self_us"]
            + sum(value for key, value in span["args"].items()
                  if key.endswith(".us"))
            for span in spans) / 1e6
        wall = trace["otherData"]["wall_s"]
        assert accounted == pytest.approx(wall, rel=0.05)
        assert trace["otherData"]["missing"] == []


def test_compare_verdicts(smoke: dict) -> None:
    results = smoke["dir"] / "results.json"
    proc = _run("compare", str(results), str(results))
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()[1:]
    assert rows and all(row.endswith(" agree") for row in rows)

    def stats(median: float, spread: float = 0.0) -> dict:
        return {"median": median, "q1": median * (1 - spread / 2),
                "q3": median * (1 + spread / 2)}

    assert run.verdict(stats(1.0), stats(1.2), 0.1, "lower") == "worse"
    assert run.verdict(stats(1.0), stats(1.2), 0.1, "higher") == "better"
    assert run.verdict(stats(1.0), stats(1.05), 0.1, "lower") == "agree"
    assert run.verdict(stats(1.0, 0.3), stats(1.0), 0.1, "lower") \
        == "unresolved"
    assert run.verdict(stats(0.0), stats(0.01), 0, "lower") == "worse"


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wallclock",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
