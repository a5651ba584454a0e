"""Cross-mode behaviour of the generic stencil machine.

The shift-buffer stage summarises its control per streaming regime
(:meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.regime`) and the
window-compute stage's output count depends on the window centre only,
so batched exact execution runs windows — also under the deprecated
``mode="fast"`` alias — and stays byte-for-byte identical to
forced-scalar execution: outputs, stats and memory-port reports.  These
tests pin that contract for both kernels built on the machine.
"""

import numpy as np
import pytest

from repro.core.buoyancy import buoyancy_reference
from repro.core.diffusion import diffuse_reference
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.scenarios.conformance import STATS_BATCH_KEYS
from repro.scenarios.kernels import BuoyancyKernel, DiffusionKernel
from repro.shiftbuffer.ports import MemoryPortTracker


def run_field(kernel, fields, name, *, mode="exact", batched=True,
              tracker=None):
    from repro.kernel.generic import run_stencil_kernel

    grid = fields.grid
    out = np.zeros(grid.interior_shape)
    interior, boundary = kernel.window_fns(grid)
    stats = run_stencil_kernel(
        getattr(fields, name), interior, boundary, out,
        mode=mode, batched=batched, tracker=tracker)
    return out, stats


def stats_minus_batching(stats):
    return {key: value for key, value in stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}


@pytest.mark.parametrize("kernel,reference", [
    (DiffusionKernel(nu=1.5), lambda f: diffuse_reference(f, nu=1.5)),
    (BuoyancyKernel(), buoyancy_reference),
])
class TestGenericKernelModes:
    def test_signatures_carry_the_regime(self, kernel, reference):
        """Neither stage vetoes: both signatures are tuples, and the
        shift stage's carries its buffer's streaming regime."""
        from repro.kernel.generic import (
            GeneralShiftBufferStage,
            WindowComputeStage,
        )

        grid = Grid(nx=4, ny=4, nz=4)
        interior, boundary = kernel.window_fns(grid)
        shift = GeneralShiftBufferStage("s", 4, 4, 4)
        compute = WindowComputeStage("c", 4, interior, boundary)
        for stage in (shift, compute):
            for cycle in (0, 10_000):
                assert isinstance(stage.ff_signature(cycle), tuple)
        assert shift.ff_signature(0)[-1:] == ("prime",)
        for _ in range(2 * 4 * 4):
            shift.fire(0, {"in": [0.0]})
        assert shift.ff_signature(0)[-3:] == (2, 0, 0)

    def test_batched_exact_matches_scalar_byte_for_byte(self, kernel,
                                                        reference):
        grid = Grid(nx=4, ny=5, nz=6)
        fields = random_wind(grid, seed=23, magnitude=2.0)
        expected = reference(fields)
        for name, ref in (("u", expected.su), ("v", expected.sv),
                          ("w", expected.sw)):
            s_tracker = MemoryPortTracker(enforce=True)
            b_tracker = MemoryPortTracker(enforce=True)
            scalar, s_stats = run_field(kernel, fields, name,
                                        batched=False, tracker=s_tracker)
            batched, b_stats = run_field(kernel, fields, name,
                                         batched=True, tracker=b_tracker)
            np.testing.assert_array_equal(scalar, batched)
            np.testing.assert_array_equal(scalar, ref)
            assert s_stats.cycles == b_stats.cycles
            assert stats_minus_batching(s_stats) \
                == stats_minus_batching(b_stats)
            assert s_tracker.reports() == b_tracker.reports()

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_fast_mode_demotes_with_identical_results(self, kernel,
                                                      reference):
        """The deprecated alias runs batched windows with no fallback."""
        grid = Grid(nx=4, ny=4, nz=5)
        fields = random_wind(grid, seed=7, magnitude=1.5)
        scalar, s_stats = run_field(kernel, fields, "u", batched=False)
        fast, f_stats = run_field(kernel, fields, "u", mode="fast",
                                  batched=False)
        np.testing.assert_array_equal(scalar, fast)
        assert s_stats.cycles == f_stats.cycles
        assert f_stats.batch_fallback_reason is None
        assert f_stats.batched_windows > 0
