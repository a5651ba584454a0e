"""Single-file Chrome/Perfetto export of tracer + schedule."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observe import Tracer, build_trace, tracer_to_events, write_trace
from repro.observe.export import ENGINE_PID, SCHEDULE_PID, SERVE_PID
from repro.runtime.event import Command
from repro.runtime.queue import CommandQueue
from repro.runtime.simulator import simulate_schedule


def sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.add_span("run", "engine", 0, 100, category="run")
    tracer.add_span("active", "read_data", 2, 90, category="stage", fires=88)
    tracer.instant("seam", "kernel", ts=50, chunk=1)
    tracer.counter("fifo_high_water", "fifo", 100, s1=3)
    return tracer


def sample_schedule():
    queue = CommandQueue()
    h2d = Command("h2d[0]", "pcie_h2d", 0.010)
    queue.enqueue(h2d)
    queue.enqueue(Command("kernel[0]", "kernel", 0.005,
                          wait_for=[h2d.event]))
    return simulate_schedule(queue)


class TestTracerToEvents:
    def test_one_thread_row_per_track(self):
        events = tracer_to_events(sample_tracer())
        rows = {e["args"]["name"]: e["tid"]
                for e in events if e["name"] == "thread_name"}
        assert set(rows) == {"engine", "read_data", "kernel", "fifo"}
        assert rows["engine"] == 0  # first-recorded order

    def test_phases_cover_span_instant_counter(self):
        events = tracer_to_events(sample_tracer())
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases

    def test_time_scale_converts_cycles(self):
        events = tracer_to_events(sample_tracer(), time_scale_us=0.5)
        span = next(e for e in events if e["name"] == "active")
        assert span["ts"] == pytest.approx(1.0)
        assert span["dur"] == pytest.approx(44.0)

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            tracer_to_events(sample_tracer(), time_scale_us=0)


class TestBuildTrace:
    def test_needs_at_least_one_source(self):
        with pytest.raises(ConfigurationError):
            build_trace()

    def test_merged_trace_has_both_processes(self):
        payload = build_trace(sample_tracer(), sample_schedule())
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {ENGINE_PID, SCHEDULE_PID}
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["name"] == "process_name"}
        assert names == {"advection [engine]", "advection [host]"}

    def test_tracer_only_and_schedule_only_work(self):
        assert build_trace(sample_tracer())["traceEvents"]
        assert build_trace(schedule=sample_schedule())["traceEvents"]


class TestWriteTrace:
    def test_written_file_is_loadable_json(self, tmp_path):
        path = write_trace(tmp_path / "t.json", sample_tracer(),
                           sample_schedule())
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) > 4

    def test_trace_is_deterministic(self, tmp_path):
        a = write_trace(tmp_path / "a.json", sample_tracer())
        b = write_trace(tmp_path / "b.json", sample_tracer())
        assert a.read_text() == b.read_text()


class TestServeTracer:
    def serve_tracer(self) -> Tracer:
        tracer = Tracer()
        tracer.add_span("job-0001", "u280-0", 0.001, 0.003,
                        category="serve", mode="functional")
        tracer.instant("reshard", "scheduler", ts=0.002, job="job-0002")
        return tracer

    def test_serve_events_land_on_their_own_process(self):
        payload = build_trace(serve_tracer=self.serve_tracer())
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {SERVE_PID}
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["name"] == "process_name"}
        assert names == {"advection [fleet]"}

    def test_serve_seconds_scale_to_microseconds(self):
        payload = build_trace(serve_tracer=self.serve_tracer())
        span = next(e for e in payload["traceEvents"]
                    if e["name"] == "job-0001")
        assert span["ts"] == pytest.approx(1000.0)
        assert span["dur"] == pytest.approx(2000.0)

    def test_serve_merges_with_engine_and_schedule(self):
        payload = build_trace(sample_tracer(), sample_schedule(),
                              serve_tracer=self.serve_tracer())
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {ENGINE_PID, SCHEDULE_PID, SERVE_PID}

    def test_serve_tracer_alone_satisfies_source_check(self):
        assert build_trace(serve_tracer=self.serve_tracer())["traceEvents"]
        with pytest.raises(ConfigurationError):
            build_trace()

    def test_write_trace_accepts_serve_tracer(self, tmp_path):
        path = write_trace(tmp_path / "serve.json",
                           serve_tracer=self.serve_tracer())
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
