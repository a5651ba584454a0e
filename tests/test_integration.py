"""Cross-subsystem integration tests.

Each test exercises a realistic multi-module workflow end to end: the
kind of path a downstream user would actually run, crossing subpackage
boundaries that unit tests don't.
"""

import numpy as np
import pytest

from repro.core import (
    AdvectionCoefficients,
    AdvectionIntegrator,
    Grid,
    advect_reference,
    thermal_bubble,
)
from repro.distributed import DistributedAdvection, ProcessGrid
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.kernel import KernelConfig, simulate_kernel
from repro.precision import FLOAT32, advect_quantised
from repro.runtime import AdvectionSession


class TestCheckpointedDeviceRun:
    def test_save_integrate_on_device_reload(self):
        """Device-backed integration reproduces the host trajectory bit
        for bit."""
        grid = Grid(nx=8, ny=10, nz=6)
        coeffs = AdvectionCoefficients.isothermal(grid)
        config = KernelConfig(grid=grid, chunk_width=4)
        session = AdvectionSession(ALVEO_U280, config)

        device_integ = AdvectionIntegrator(
            fields=thermal_bubble(grid), dt=0.5, coeffs=coeffs,
            advect=lambda f: session.execute(f, coeffs))
        host_integ = AdvectionIntegrator(
            fields=thermal_bubble(grid), dt=0.5, coeffs=coeffs)

        device_integ.run(4)
        host_integ.run(4)

        np.testing.assert_array_equal(device_integ.fields.interior("u"),
                                      host_integ.fields.interior("u"))
        np.testing.assert_array_equal(device_integ.fields.interior("w"),
                                      host_integ.fields.interior("w"))


class TestDistributedDeviceBackend:
    def test_each_rank_on_simulated_fpga(self):
        """Distributed MONC with every rank's advection on the
        cycle-accurate FPGA simulation: still bit-identical."""
        grid = Grid(nx=8, ny=8, nz=4)
        topo = ProcessGrid(global_grid=grid, px=2, py=2)
        coeffs = AdvectionCoefficients.uniform(grid)

        def fpga_rank(local_fields):
            config = KernelConfig(grid=local_fields.grid, chunk_width=3)
            local_coeffs = AdvectionCoefficients.uniform(local_fields.grid)
            return simulate_kernel(config, local_fields,
                                   local_coeffs).sources

        fields = thermal_bubble(grid)
        distributed = DistributedAdvection(topo, backend=fpga_rank,
                                           coeffs=coeffs)
        assert distributed.compute(fields).max_abs_difference(
            advect_reference(fields, coeffs)) == 0.0


class TestPrecisionOnDistributedDomain:
    def test_quantised_backend_consistent_across_decomposition(self):
        """float32 datapath on 4 ranks == float32 datapath on 1 domain:
        quantisation and decomposition commute."""
        grid = Grid(nx=8, ny=8, nz=5)
        fields = thermal_bubble(grid)
        single = advect_quantised(fields, FLOAT32)

        topo = ProcessGrid(global_grid=grid, px=2, py=2)
        distributed = DistributedAdvection(
            topo, backend=lambda f: advect_quantised(f, FLOAT32))
        assert distributed.compute(fields).max_abs_difference(single) == 0.0


class TestCrossDeviceConsistency:
    def test_functional_results_device_independent(self):
        """The *numerics* never depend on which device model hosts the
        session — only the timing does."""
        grid = Grid(nx=6, ny=9, nz=5)
        fields = thermal_bubble(grid)
        config = KernelConfig(grid=grid, chunk_width=4)
        a = AdvectionSession(ALVEO_U280, config).execute(fields)
        b = AdvectionSession(STRATIX10_GX2800, config).execute(fields)
        assert a.max_abs_difference(b) == 0.0

    def test_timing_does_depend_on_device(self):
        grid = Grid.from_cells(16 * 1024 * 1024)
        config = KernelConfig(grid=grid)
        a = AdvectionSession(ALVEO_U280, config).run(grid, overlapped=False)
        b = AdvectionSession(STRATIX10_GX2800, config).run(grid,
                                                           overlapped=False)
        assert a.runtime_seconds != b.runtime_seconds


class TestScorecardEndToEnd:
    def test_scorecard_is_perfect_at_default_tolerance(self):
        from repro.experiments.summary import build_scorecard

        card = build_scorecard()
        assert card.match_fraction == 1.0, card.summary_line()


class TestDeterminism:
    def test_repeated_runs_identical(self):
        """Simulations are deterministic: same inputs, same cycles, same
        bits — a prerequisite for every regression test in this suite."""
        grid = Grid(nx=5, ny=6, nz=4)
        fields = thermal_bubble(grid)
        config = KernelConfig(grid=grid, chunk_width=3)
        first = simulate_kernel(config, fields)
        second = simulate_kernel(config, fields)
        assert first.total_cycles == second.total_cycles
        assert first.sources.max_abs_difference(second.sources) == 0.0

    def test_session_runs_deterministic(self):
        grid = Grid.from_cells(16 * 1024 * 1024)
        session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid))
        a = session.run(grid, overlapped=True)
        b = session.run(grid, overlapped=True)
        assert a.runtime_seconds == pytest.approx(b.runtime_seconds,
                                                  rel=1e-12)
