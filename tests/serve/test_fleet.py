"""Fleet parsing, lane namespacing, and quote==bill consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.hardware import CPUModel
from repro.scenarios import names as scenario_names
from repro.serve import DEFAULT_FLEET_SPEC, Fleet, JobSpec, parse_fleet_spec
from repro.tune import SERVE_MODES, out_scale_for_mode, quote_job, serve_session


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
        """A transfer fault aimed at one lane's commands ("u280-0:*")
        strikes that lane's bill and never its sibling's."""
        fleet = Fleet.from_spec("2xu280")
        spec = JobSpec(job_id="j", nx=8, ny=9, nz=8)
        plan = FaultPlan([FaultSpec("transfer", "fail", match="u280-0:*",
                                    count=None)])
        retry = RetryPolicy(max_attempts=2)
        clean = fleet.lanes[1].service_seconds(spec, "functional")
        assert fleet.lanes[1].service_seconds(
            spec, "functional", fault_plan=plan, retry=retry) == clean
        with pytest.raises(RetryExhaustedError):
            fleet.lanes[0].service_seconds(spec, "functional",
                                           fault_plan=plan, retry=retry)

    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(2, 24), ny=st.integers(3, 24),
           nz=st.integers(3, 12), mode=st.sampled_from(SERVE_MODES),
           scenario=st.sampled_from((None, *scenario_names())))
    def test_bill_matches_quote_fault_free(self, nx, ny, nz, mode,
                                           scenario):
        """The admission quote and the lane's bill are one price: equal
        to the bit on every lane, the CPU baseline included."""
        spec = JobSpec(job_id="j", nx=nx, ny=ny, nz=nz, scenario=scenario)
        for lane in Fleet.from_spec("1xu280+1xstratix10+cpu").lanes:
            quote = quote_job(lane.device, spec.grid(), mode=mode,
                              flops_scale=spec.flops_scale())
            billed, redrives = lane.service_seconds(spec, mode)
            assert billed == quote.service_seconds, lane.name
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
