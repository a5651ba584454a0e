"""Benchmark records: the JSON suite every perf harness writes."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.bench import BenchRecord, BenchSuite, load_suite, speedup


class TestBenchRecords:
    def record(self, name="r", wall=2.0, cycles=1000, mode="exact"):
        return BenchRecord(name=name, wall_seconds=wall, cycles=cycles,
                           cells=512, mode=mode)

    def test_round_trip(self, tmp_path):
        suite = BenchSuite(context={"grid": "8x8x8"})
        suite.add(self.record("a", wall=2.0))
        suite.add(self.record("b", wall=0.5, mode="chaos"))
        path = suite.write(tmp_path / "bench.json")
        loaded = load_suite(path)
        assert loaded.context["grid"] == "8x8x8"
        assert [r.name for r in loaded.records] == ["a", "b"]
        assert loaded.find("b").mode == "chaos"

    def test_cycles_per_second(self):
        assert self.record(wall=2.0, cycles=1000).cycles_per_second == 500.0

    def test_speedup(self):
        base = self.record("base", wall=2.0)
        cand = self.record("cand", wall=0.5)
        assert speedup(base, cand) == pytest.approx(4.0)

    def test_speedup_rejects_mismatched_cycles(self):
        base = self.record("base", cycles=1000)
        cand = self.record("cand", cycles=999)
        with pytest.raises(ConfigurationError):
            speedup(base, cand)

    def test_rejects_nonpositive_wall_time(self):
        with pytest.raises(ConfigurationError):
            self.record(wall=0.0)
