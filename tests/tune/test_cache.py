"""Evaluation cache: round-trips, scoping, schema discipline."""

import json

import pytest

from repro.core.grid import Grid
from repro.errors import TuneError
from repro.hardware.devices import ALVEO_U280
from repro.tune.cache import SCHEMA_VERSION, EvaluationCache
from repro.tune.cost import CostModel
from repro.tune.space import TunePoint

GRID = Grid(nx=16, ny=64, nz=16)


def point(**overrides) -> TunePoint:
    values = dict(chunk_width=32, num_kernels=2, stream_depth=4,
                  precision="float64", memory="hbm2", x_chunks=16,
                  overlapped=True)
    values.update(overrides)
    return TunePoint(**values)


@pytest.fixture(scope="module")
def model():
    return CostModel(ALVEO_U280, GRID)


class TestInMemory:
    def test_get_put_and_stats(self, model):
        cache = EvaluationCache(device="u280", grid_key="g")
        p = point()
        assert cache.get(p) is None
        assert p not in cache
        evaluation = model.evaluate(p)
        cache.put(evaluation)
        assert p in cache
        assert cache.get(p) == evaluation
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_save_without_path_is_a_no_op(self, model):
        cache = EvaluationCache()
        cache.put(model.evaluate(point()))
        cache.save()  # must not raise


class TestPersistence:
    def test_round_trip_preserves_evaluations(self, tmp_path, model):
        path = tmp_path / "cache.json"
        first = EvaluationCache(path, device="u280", grid_key="g")
        feasible = model.evaluate(point())
        rejected = model.evaluate(point(num_kernels=32))
        first.put(feasible)
        first.put(rejected)
        first.save()

        second = EvaluationCache(path, device="u280", grid_key="g")
        assert len(second) == 2
        for original in (feasible, rejected):
            loaded = second.get(original.point)
            assert loaded.feasible == original.feasible
            assert loaded.reject_codes == original.reject_codes
            assert loaded.to_dict() == original.to_dict()

    def test_scopes_do_not_leak(self, tmp_path, model):
        path = tmp_path / "cache.json"
        u280 = EvaluationCache(path, device="u280", grid_key="g")
        u280.put(model.evaluate(point()))
        u280.save()

        other = EvaluationCache(path, device="stratix10", grid_key="g")
        assert len(other) == 0
        other.put(model.evaluate(point(chunk_width=16)))
        other.save()

        # Saving the second scope must not erase the first.
        data = json.loads(path.read_text())
        assert set(data["scopes"]) == {"fpga_shiftbuffer/u280/g",
                                       "fpga_shiftbuffer/stratix10/g"}
        reloaded = EvaluationCache(path, device="u280", grid_key="g")
        assert len(reloaded) == 1

    def test_backends_do_not_share_entries(self, tmp_path, model):
        path = tmp_path / "cache.json"
        fpga = EvaluationCache(path, device="u280", grid_key="g")
        fpga.put(model.evaluate(point()))
        fpga.save()

        # Same device/grid labels under a different backend id must see
        # an empty scope: a cached U280 evaluation can never be served
        # for a Versal query.
        versal = EvaluationCache(path, backend="versal_aie",
                                 device="u280", grid_key="g")
        assert len(versal) == 0
        versal.save()
        data = json.loads(path.read_text())
        assert set(data["scopes"]) == {"fpga_shiftbuffer/u280/g",
                                       "versal_aie/u280/g"}

    def test_legacy_schema2_migrates(self, tmp_path, model):
        """A pre-backend cache file loads under the default backend."""
        path = tmp_path / "cache.json"
        evaluation = model.evaluate(point())
        path.write_text(json.dumps({
            "schema": 2,
            "scopes": {
                "u280/g": {evaluation.point.key(): evaluation.to_dict()},
                "stratix10/g": {},
            },
        }))
        migrated = EvaluationCache(path, device="u280", grid_key="g")
        assert len(migrated) == 1
        assert migrated.get(evaluation.point).to_dict() == evaluation.to_dict()

        # Saving rewrites the file as schema 3 with every legacy scope
        # re-keyed under the default backend.
        migrated.save()
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert set(data["scopes"]) == {"fpga_shiftbuffer/u280/g",
                                       "fpga_shiftbuffer/stratix10/g"}
        # A non-default backend still sees nothing after migration.
        versal = EvaluationCache(path, backend="versal_aie",
                                 device="u280", grid_key="g")
        assert len(versal) == 0

    def test_schema3_file_with_the_proved_count_still_loads(self, tmp_path,
                                                           model):
        """A schema-3 entry with a ``static_cycles`` key (a proved count
        equal to ``analytic_cycles``) loads as a fresh evaluation, and
        saving drops the key."""
        path = tmp_path / "cache.json"
        evaluation = model.evaluate(point())
        entry = dict(evaluation.to_dict(),
                     static_cycles=evaluation.analytic_cycles)
        path.write_text(json.dumps({
            "schema": 3,
            "scopes": {"fpga_shiftbuffer/u280/g": {
                evaluation.point.key(): entry}},
        }))
        loaded = EvaluationCache(path, device="u280", grid_key="g")
        assert loaded.get(evaluation.point).to_dict() == evaluation.to_dict()
        loaded.save()
        (saved,) = json.loads(path.read_text())["scopes"][
            "fpga_shiftbuffer/u280/g"].values()
        assert "static_cycles" not in saved

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(
            {"schema": SCHEMA_VERSION + 1, "scopes": {}}))
        with pytest.raises(TuneError, match="schema"):
            EvaluationCache(path, device="u280", grid_key="g")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(TuneError, match="unreadable"):
            EvaluationCache(path, device="u280", grid_key="g")

    def test_save_overwrites_corrupt_file(self, tmp_path, model):
        path = tmp_path / "cache.json"
        cache = EvaluationCache(device="u280", grid_key="g")
        cache.path = path
        path.write_text("{not json")
        cache.put(model.evaluate(point()))
        cache.save()
        assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION
