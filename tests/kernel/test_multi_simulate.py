"""Cycle-accurate runs of several kernel replicas sharing one memory."""

import dataclasses

import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet
from repro.core.grid import Grid, GridDecomposition
from repro.core.reference import advect_reference
from repro.core.wind import random_wind
from repro.errors import ConfigurationError, PortConflictError
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import ALVEO_U280
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import KernelSimResult, simulate_kernel
from repro.kernel.stages import MemoryArbiter


@pytest.fixture
def setup():
    grid = Grid(nx=8, ny=6, nz=4)
    fields = random_wind(grid, seed=2)
    config = KernelConfig(grid=grid, chunk_width=3)
    return grid, fields, config


class TestMemoryArbiter:
    def test_integer_rate(self):
        arbiter = MemoryArbiter(2.0)
        arbiter.tick(0)
        assert arbiter.request() and arbiter.request()
        assert not arbiter.request()
        arbiter.tick(1)
        assert arbiter.request()

    def test_fractional_rate_accumulates(self):
        arbiter = MemoryArbiter(0.5)
        arbiter.tick(0)
        assert not arbiter.request()
        arbiter.tick(1)
        assert arbiter.request()  # two half-credits make one grant

    def test_credit_cap_prevents_bursts(self):
        arbiter = MemoryArbiter(1.0)
        for cycle in range(10):  # idle cycles must not bank credits
            arbiter.tick(cycle)
        arbiter.tick(10)
        assert arbiter.request()
        assert arbiter.request()  # one banked credit is allowed
        assert not arbiter.request()

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            MemoryArbiter(0.0)


class TestCoSimulation:
    @pytest.mark.parametrize("num_kernels", [1, 2, 4])
    def test_bitwise_correct_any_kernel_count(self, setup, num_kernels):
        grid, fields, config = setup
        result = simulate_kernel(config, fields, num_kernels=num_kernels)
        assert result.sources.max_abs_difference(
            advect_reference(fields)) == 0.0

    def test_ample_bandwidth_matches_analytic_model(self, setup):
        """With one read grant per kernel per cycle the co-simulation
        measures exactly the cycles the device model prices."""
        grid, fields, config = setup
        result = simulate_kernel(config, fields, num_kernels=2)
        assert result.total_cycles == ALVEO_U280.invocation(
            config, grid, num_kernels=2).cycles
        assert result.read_starvation_fraction == 0.0

    def test_starved_memory_slows_and_still_correct(self, setup):
        grid, fields, config = setup
        ample = simulate_kernel(config, fields, num_kernels=2)
        starved = simulate_kernel(config, fields, num_kernels=2,
                                  memory_cells_per_cycle=1.0)
        assert starved.sources.max_abs_difference(ample.sources) == 0.0
        assert starved.total_cycles > 1.5 * ample.total_cycles
        assert starved.read_starvation_fraction > 0.2

    def test_fractional_rate_interpolates(self, setup):
        grid, fields, config = setup
        ample = simulate_kernel(config, fields, num_kernels=2)
        starved = simulate_kernel(config, fields, num_kernels=2,
                                  memory_cells_per_cycle=1.0)
        middle = simulate_kernel(config, fields, num_kernels=2,
                                 memory_cells_per_cycle=1.5)
        assert ample.total_cycles < middle.total_cycles < starved.total_cycles

    def test_isothermal_coefficients(self, setup):
        grid, fields, config = setup
        coeffs = AdvectionCoefficients.isothermal(grid)
        result = simulate_kernel(config, fields, coeffs, num_kernels=3)
        assert result.sources.max_abs_difference(
            advect_reference(fields, coeffs)) == 0.0

    def test_kernel_count_capped_by_nx(self):
        grid = Grid(nx=3, ny=4, nz=4)
        fields = random_wind(grid, seed=0)
        result = simulate_kernel(
            KernelConfig(grid=grid, chunk_width=4), fields, num_kernels=8)
        assert result.num_kernels == 3

    def test_default_rate_is_one_read_per_running_replica(self):
        grid = Grid(nx=3, ny=8, nz=8)
        fields = random_wind(grid, seed=0, magnitude=2.0)
        config = KernelConfig(grid=grid)
        capped = simulate_kernel(config, fields, num_kernels=8)
        rated = simulate_kernel(config, fields, num_kernels=8,
                                memory_cells_per_cycle=3.0)
        assert capped.num_kernels == 3
        assert capped.arbiter.rate == rated.arbiter.rate == 3.0
        assert (capped.total_cycles, capped.arbiter.grants,
                capped.arbiter.denials) == (rated.total_cycles,
                                            rated.arbiter.grants,
                                            rated.arbiter.denials)

    def test_validation(self, setup):
        grid, fields, config = setup
        with pytest.raises(ConfigurationError):
            simulate_kernel(config, fields, num_kernels=0)
        wrong = random_wind(Grid(nx=4, ny=4, nz=4), seed=0)
        with pytest.raises(ConfigurationError):
            simulate_kernel(config, wrong, num_kernels=2)

    def test_extreme_starvation_no_false_deadlock(self, setup):
        """Rates far below one grant/cycle stall reads for long stretches;
        the widened engine grace must not misdiagnose a deadlock, and the
        result stays exact."""
        grid, fields, config = setup
        from repro.core.reference import advect_reference

        result = simulate_kernel(config, fields, num_kernels=2,
                                 memory_cells_per_cycle=0.1)
        assert result.sources.max_abs_difference(
            advect_reference(fields)) == 0.0
        assert result.read_starvation_fraction > 0.8

    def test_chunk_cycles_recorded(self, setup):
        grid, fields, config = setup
        result = simulate_kernel(config, fields, num_kernels=2)
        assert isinstance(result, KernelSimResult)
        assert len(result.chunk_cycles) == config.chunk_plan().num_chunks
        assert sum(result.chunk_cycles) == result.total_cycles

    def test_one_replica_needs_a_rate_to_share(self, setup):
        """One replica without a rate is the plain run: no arbiter and
        unprefixed stages.  A rate arbitrates its reads, and at one read
        per cycle costs no cycle."""
        grid, fields, config = setup
        plain = simulate_kernel(config, fields, num_kernels=1)
        rated = simulate_kernel(config, fields, num_kernels=1,
                                memory_cells_per_cycle=1.0)
        assert plain.arbiter is None and plain.read_starvation_fraction == 0
        assert "read_data" in plain.aggregate_stats().fires
        assert rated.arbiter is not None and rated.arbiter.denials == 0
        assert "k0.read_data" in rated.aggregate_stats().fires
        assert rated.total_cycles == plain.total_cycles
        assert rated.sources.same_bits(plain.sources)

    def test_ports_are_checked_on_every_replica(self, setup):
        grid, fields, config = setup
        unpartitioned = dataclasses.replace(config, partitioned=False)
        with pytest.raises(PortConflictError):
            simulate_kernel(unpartitioned, fields, num_kernels=2)
        result = simulate_kernel(unpartitioned, fields, num_kernels=2,
                                 enforce_ports=False)
        assert result.port_tracker.conflicts > 0
        assert result.port_tracker.worst_case > 2

    @pytest.mark.parametrize("num_kernels", [2, 3])
    def test_each_replica_reports_its_own_ports(self, setup, num_kernels):
        """A replica's memories age by its own bookings alone: every
        ``k{p}.`` memory reports as in a plain run of that replica's
        sub-grid."""
        grid, fields, config = setup
        reports = simulate_kernel(config, fields, num_kernels=num_kernels
                                  ).port_tracker.reports()
        decomp = GridDecomposition(grid, num_kernels)
        names = []
        for p, (x0, x1) in enumerate(decomp.bounds):
            sub_grid = decomp.subgrid(p)
            sub_fields = FieldSet(sub_grid, fields.u[x0:x1 + 2],
                                  fields.v[x0:x1 + 2], fields.w[x0:x1 + 2])
            alone = simulate_kernel(config.for_grid(sub_grid), sub_fields
                                    ).port_tracker.reports()
            for name, report in alone.items():
                names.append(f"k{p}.{name}")
                assert reports[f"k{p}.{name}"] == dataclasses.replace(
                    report, name=f"k{p}.{name}")
        assert sorted(reports) == sorted(names)


class TestReadII:
    """Every replica reads at the run's ``read_ii``."""

    @pytest.fixture
    def uneven(self):
        grid = Grid(nx=9, ny=7, nz=5)  # replicas of 5 and 4 columns
        fields = random_wind(grid, seed=4)
        return grid, fields, KernelConfig(grid=grid, chunk_width=3)

    @staticmethod
    def widest_alone(grid, fields, config, read_ii):
        """The plain run of the widest replica's sub-grid."""
        decomp = GridDecomposition(grid, 2)
        x0, x1 = decomp.bounds[0]
        sub_grid = decomp.subgrid(0)
        sub_fields = FieldSet(sub_grid, fields.u[x0:x1 + 2],
                              fields.v[x0:x1 + 2], fields.w[x0:x1 + 2])
        return simulate_kernel(config.for_grid(sub_grid), sub_fields,
                               read_ii=read_ii)

    @pytest.mark.parametrize("read_ii", [2, 3])
    def test_chunks_take_the_widest_replicas_cycles(self, uneven, read_ii):
        grid, fields, config = uneven
        result = simulate_kernel(config, fields, num_kernels=2,
                                 read_ii=read_ii)
        alone = self.widest_alone(grid, fields, config, read_ii)
        assert result.chunk_cycles == alone.chunk_cycles
        assert result.read_starvation_fraction == 0.0
        assert result.sources.same_bits(
            simulate_kernel(config, fields).sources)

    def test_slowed_replica_multiplies_the_read_ii(self, uneven):
        grid, fields, config = uneven
        plan = FaultPlan([FaultSpec("replica", "slow", match="k0:chunk0",
                                    factor=3.0)])
        result = simulate_kernel(config, fields, num_kernels=2, read_ii=2,
                                 fault_plan=plan)
        slowed = self.widest_alone(grid, fields, config, 6)
        alone = self.widest_alone(grid, fields, config, 2)
        assert result.chunk_cycles == (slowed.chunk_cycles[:1]
                                       + alone.chunk_cycles[1:])
