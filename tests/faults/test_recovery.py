"""Recovery machinery end to end: checkpoint/restart, quarantine, respawn.

Transient faults must leave the numerical output bit-identical to the
fault-free golden run; persistent faults must exhaust the retry budget
with a typed error rather than hang or corrupt.
"""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.distributed import DistributedAdvection, ProcessGrid
from repro.errors import ReplicaLostError, RetryExhaustedError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel


@pytest.fixture
def setup():
    grid = Grid(nx=6, ny=6, nz=4)
    fields = random_wind(grid, seed=3)
    config = KernelConfig(grid=grid, chunk_width=3)
    return grid, fields, config


def assert_bit_identical(sources, golden):
    np.testing.assert_array_equal(sources.su, golden.su)
    np.testing.assert_array_equal(sources.sv, golden.sv)
    np.testing.assert_array_equal(sources.sw, golden.sw)


class TestCheckpointRestart:
    def test_transient_corruption_recovers_bit_identical(self, setup):
        grid, fields, config = setup
        golden = simulate_kernel(config, fields)
        plan = FaultPlan([FaultSpec("fifo", "corrupt", match="*",
                                    probability=0.05, count=1)], seed=1)
        result = simulate_kernel(config, fields, fault_plan=plan)
        assert result.chunk_retries >= 1
        assert_bit_identical(result.sources, golden.sources)

    def test_transient_drop_recovers_bit_identical(self, setup):
        grid, fields, config = setup
        golden = simulate_kernel(config, fields)
        plan = FaultPlan([FaultSpec("fifo", "drop", match="*",
                                    probability=0.05, count=1)], seed=2)
        result = simulate_kernel(config, fields, fault_plan=plan)
        assert result.chunk_retries >= 1
        assert_bit_identical(result.sources, golden.sources)

    def test_persistent_fault_exhausts_retry_budget(self, setup):
        grid, fields, config = setup
        plan = FaultPlan([FaultSpec("fifo", "corrupt", match="*",
                                    probability=0.05, count=None)], seed=1)
        with pytest.raises(RetryExhaustedError, match="attempts"):
            simulate_kernel(config, fields, fault_plan=plan,
                            retry=RetryPolicy(max_attempts=2))

    def test_fault_free_plan_costs_no_retries(self, setup):
        grid, fields, config = setup
        golden = simulate_kernel(config, fields)
        result = simulate_kernel(config, fields, fault_plan=FaultPlan([]),
                                 retry=RetryPolicy())
        assert result.chunk_retries == 0
        assert result.total_cycles == golden.total_cycles
        assert_bit_identical(result.sources, golden.sources)


class TestReplicaQuarantine:
    def test_killed_replica_quarantined_work_rescheduled(self, setup):
        grid, fields, config = setup
        golden = simulate_kernel(config, fields, num_kernels=2)
        plan = FaultPlan([FaultSpec("replica", "kill", match="k1:*",
                                    count=1)])
        result = simulate_kernel(config, fields, num_kernels=2,
                                 fault_plan=plan)
        assert result.quarantined == [1]
        assert result.rescheduled_chunks >= 1
        assert result.total_cycles > golden.total_cycles
        assert_bit_identical(result.sources, golden.sources)

    def test_slow_replica_degrades_but_stays_correct(self, setup):
        grid, fields, config = setup
        golden = simulate_kernel(config, fields, num_kernels=2)
        plan = FaultPlan([FaultSpec("replica", "slow", match="k0:*",
                                    count=1, factor=4.0)])
        result = simulate_kernel(config, fields, num_kernels=2,
                                 fault_plan=plan)
        assert result.quarantined == []
        assert result.total_cycles > golden.total_cycles
        assert_bit_identical(result.sources, golden.sources)

    def test_retried_reschedule_keeps_the_survivors_columns(self, setup):
        """A transient corrupt strikes the killed replica's rescheduled
        run after the survivor wrote its part of the chunk.  The retry
        zeroes only the rescheduled replica's columns, so the result
        stays bit-identical to the fault-free run."""
        grid, fields, config = setup
        golden = simulate_kernel(config, fields, num_kernels=2)
        plan = FaultPlan([
            FaultSpec("replica", "kill", match="k1:chunk0", count=1),
            FaultSpec("fifo", "corrupt", match="k1.*", probability=0.05,
                      count=1),
        ])
        result = simulate_kernel(config, fields, num_kernels=2,
                                 fault_plan=plan)
        assert [event.kind for event in plan.trace] == ["kill", "corrupt"]
        assert result.quarantined == [1]
        assert result.chunk_retries == 1
        assert_bit_identical(result.sources, golden.sources)

    def test_all_replicas_dead_raises_typed_error(self, setup):
        grid, fields, config = setup
        plan = FaultPlan([FaultSpec("replica", "kill", match="*",
                                    count=None)])
        with pytest.raises(ReplicaLostError):
            simulate_kernel(config, fields, num_kernels=2,
                            fault_plan=plan)


class TestRankRespawn:
    def make(self):
        grid = Grid(nx=6, ny=9, nz=4)
        fields = random_wind(grid, seed=5)
        topo = ProcessGrid(global_grid=grid, px=2, py=3)
        return grid, fields, topo

    def test_dropped_rank_respawns_bit_identical(self):
        grid, fields, topo = self.make()
        golden = advect_reference(fields)
        plan = FaultPlan([FaultSpec("rank", "drop", match="rank2",
                                    count=1)])
        driver = DistributedAdvection(topo, fault_plan=plan)
        sources = driver.compute(fields)
        assert driver.last_report.recovered_ranks == 1
        assert_bit_identical(sources, golden)

    def test_respawned_rank_charged_for_recompute(self):
        grid, fields, topo = self.make()
        clean = DistributedAdvection(topo)
        clean.compute(fields)
        plan = FaultPlan([FaultSpec("rank", "drop", match="rank2",
                                    count=1)])
        faulty = DistributedAdvection(topo, fault_plan=plan)
        faulty.compute(fields)
        assert (faulty.last_report.compute_seconds
                > clean.last_report.compute_seconds)

    def test_persistent_rank_drop_exhausts(self):
        grid, fields, topo = self.make()
        plan = FaultPlan([FaultSpec("rank", "drop", match="rank0",
                                    count=None)])
        driver = DistributedAdvection(
            topo, fault_plan=plan, retry=RetryPolicy(max_attempts=2))
        with pytest.raises(RetryExhaustedError) as info:
            driver.compute(fields)
        assert isinstance(info.value.__cause__, ReplicaLostError)
