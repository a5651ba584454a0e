"""Fleet parsing, lane namespacing, and quote==bill consistency."""

import pytest

from repro.core.grid import Grid
from repro.errors import ConfigurationError
from repro.hardware import CPUModel
from repro.runtime.overlap import build_overlapped_schedule
from repro.serve import DEFAULT_FLEET_SPEC, Fleet, JobSpec, parse_fleet_spec
from repro.tune import out_scale_for_mode, quote_job, serve_session


class TestParse:
    def test_counts_expand(self):
        assert parse_fleet_spec("2xu280+1xstratix10") == [
            "u280", "u280", "stratix10"]

    def test_bare_name_counts_one(self):
        assert parse_fleet_spec("u280+cpu") == ["u280", "cpu"]

    def test_rejects_empty_term(self):
        with pytest.raises(ConfigurationError, match="empty term"):
            parse_fleet_spec("u280++cpu")

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError, match="count"):
            parse_fleet_spec("0xu280")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="bad fleet term"):
            parse_fleet_spec("2*u280")


class TestFleet:
    def test_lanes_get_ordinal_names(self):
        fleet = Fleet.from_spec("2xu280+1xstratix10")
        assert [lane.name for lane in fleet.lanes] == [
            "u280-0", "u280-1", "stratix10-0"]

    def test_default_spec_parses(self):
        fleet = Fleet.from_spec(DEFAULT_FLEET_SPEC)
        assert len(fleet.lanes) == 3

    def test_unknown_device_is_typed(self):
        with pytest.raises(ConfigurationError):
            Fleet.from_spec("2xnotadevice")

    def test_cpu_lane_flagged(self):
        fleet = Fleet.from_spec("cpu")
        assert fleet.lanes[0].is_cpu
        assert isinstance(fleet.lanes[0].device, CPUModel)

    def test_dispatchable_excludes_lost_lanes(self):
        fleet = Fleet.from_spec("2xu280")
        fleet.lanes[0].mark_lost(until=float("inf"))
        names = [lane.name for lane in fleet.dispatchable(now=0.0)]
        assert names == ["u280-1"]

    def test_recoverable_false_only_when_all_lost_forever(self):
        fleet = Fleet.from_spec("2xu280")
        fleet.lanes[0].mark_lost(until=float("inf"))
        assert fleet.recoverable(now=0.0)
        fleet.lanes[1].mark_lost(until=float("inf"))
        assert not fleet.recoverable(now=0.0)

    def test_blip_is_recoverable(self):
        fleet = Fleet.from_spec("1xu280")
        fleet.lanes[0].mark_lost(until=5.0)
        assert fleet.lanes[0].lost(4.0)
        assert not fleet.lanes[0].lost(6.0)
        assert fleet.recoverable(now=0.0)


class TestLaneBilling:
    def test_commands_are_lane_namespaced(self):
        fleet = Fleet.from_spec("2xu280")
        lane = fleet.lanes[1]
        grid = Grid(8, 9, 8)
        session = lane.session_for(grid)
        queue = build_overlapped_schedule(
            session.chunk_work(grid), lane.device.pcie,
            name_prefix=f"{lane.name}:",
        )
        assert all(cmd.name.startswith("u280-1:") for cmd in queue.commands)

    def test_bill_matches_quote_fault_free(self):
        """The admission quote and the lane's bill must agree exactly."""
        fleet = Fleet.from_spec("1xu280+1xstratix10")
        spec = JobSpec(job_id="j", nx=8, ny=9, nz=8)
        for lane in fleet.lanes:
            for mode in ("functional", "exact"):
                quote = quote_job(lane.device, spec.grid(), mode=mode)
                billed, redrives = lane.service_seconds(spec, mode)
                assert billed == pytest.approx(quote.service_seconds,
                                               rel=1e-12)
                assert redrives == 0

    def test_exact_mode_bills_at_least_fast(self):
        fleet = Fleet.from_spec("1xu280")
        spec = JobSpec(job_id="j", nx=8, ny=9, nz=8)
        functional, _ = fleet.lanes[0].service_seconds(spec, "functional")
        exact, _ = fleet.lanes[0].service_seconds(spec, "exact")
        assert exact >= functional

    def test_out_scale_inflates_d2h_bytes(self):
        grid = Grid(8, 9, 8)
        fleet = Fleet.from_spec("1xu280")
        session = serve_session(fleet.lanes[0].device, grid)
        plain = session.chunk_work(grid)
        scaled = session.chunk_work(grid,
                                    out_scale=out_scale_for_mode("exact"))
        for before, after in zip(plain, scaled):
            assert after.out_bytes == pytest.approx(2.0 * before.out_bytes)
            assert after.in_bytes == before.in_bytes

    def test_sessions_are_cached_per_dims(self):
        lane = Fleet.from_spec("1xu280").lanes[0]
        assert lane.session_for(Grid(8, 9, 8)) is lane.session_for(
            Grid(8, 9, 8))
        assert lane.session_for(Grid(8, 9, 8)) is not lane.session_for(
            Grid(6, 9, 5))
