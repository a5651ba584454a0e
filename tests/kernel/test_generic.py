"""The generic cycle-level stencil kernel."""

import numpy as np
import pytest

from repro.core.diffusion import diffuse_reference
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.errors import ConfigurationError
from repro.kernel.generic import run_stencil_kernel
from repro.scenarios.kernels import DiffusionKernel
from repro.shiftbuffer.ports import MemoryPortTracker


def diffusion_fns(grid: Grid, nu: float):
    """The diffusion kernel's (interior, boundary) window arithmetic."""
    return DiffusionKernel(nu=nu).window_fns(grid)


def zero(window, *, top=False):
    return 0.0


class TestDiffusionCycleAccurate:
    def test_bitwise_equal_to_reference(self):
        """The diffusion kernel, run cycle-accurately on the generic
        dataflow machine, reproduces the reference bit for bit."""
        grid = Grid(nx=4, ny=5, nz=5, dx=20.0, dy=30.0, dz=10.0)
        fields = random_wind(grid, seed=11, magnitude=2.0)
        reference = diffuse_reference(fields, nu=4.0)
        for name, expected in (("u", reference.su), ("v", reference.sv),
                               ("w", reference.sw)):
            out = np.zeros(grid.interior_shape)
            run_stencil_kernel(getattr(fields, name),
                               *diffusion_fns(grid, 4.0), out)
            np.testing.assert_array_equal(out, expected)

    def test_ii1_machine_behaviour(self):
        """One value consumed per cycle in steady state: the dataflow
        design generalises beyond advection."""
        grid = Grid(nx=4, ny=4, nz=8)
        fields = random_wind(grid, seed=1)
        out = np.zeros(grid.interior_shape)
        stats = run_stencil_kernel(fields.u, *diffusion_fns(grid, 1.0),
                                   out)
        feeds = (grid.nx + 2) * (grid.ny + 2) * grid.nz
        assert stats.fires["shift"] == feeds
        assert stats.cycles <= feeds + 40  # fill only

    def test_port_budget(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=2)
        out = np.zeros(grid.interior_shape)
        tracker = MemoryPortTracker(enforce=True)
        run_stencil_kernel(fields.u, *diffusion_fns(grid, 1.0), out,
                           tracker=tracker)
        assert tracker.worst_case == 2


class TestGenericMechanics:
    def test_identity_stencil(self):
        """Returning the centre value copies the interior; boundary
        cells take whatever the boundary function gives them."""
        block = np.arange(4 * 5 * 3, dtype=float).reshape(4, 5, 3)
        out = np.zeros((2, 3, 3))
        run_stencil_kernel(
            block, lambda w: w.at(0, 0, 0),
            lambda w, *, top: w.at(0, 0, 1 if top else -1), out)
        np.testing.assert_array_equal(out, block[1:-1, 1:-1, :])

    def test_output_shape_validated(self):
        block = np.zeros((4, 4, 4))
        with pytest.raises(ConfigurationError):
            run_stencil_kernel(block, zero, zero, np.zeros((3, 3, 4)))

    def test_block_rank_validated(self):
        with pytest.raises(ConfigurationError):
            run_stencil_kernel(np.zeros((4, 4)), zero, zero,
                               np.zeros((2, 2)))

    def test_integer_output_rejected(self):
        """An int array would silently truncate every result."""
        with pytest.raises(ConfigurationError, match="float64"):
            run_stencil_kernel(np.ones((6, 6, 3)), zero, zero,
                               np.zeros((4, 4, 3), dtype=int))

    def test_read_only_output_rejected(self):
        out = np.zeros((2, 2, 4))
        out.flags.writeable = False
        with pytest.raises(ConfigurationError, match="read-only"):
            run_stencil_kernel(np.zeros((4, 4, 4)), zero, zero, out)

    def test_non_array_block_rejected(self):
        nested = np.zeros((4, 4, 4)).tolist()
        with pytest.raises(ConfigurationError, match="NumPy array"):
            run_stencil_kernel(nested, zero, zero, np.zeros((2, 2, 4)))


def branching(window, *, top=False):
    value = window.at(0, 0, 0)
    return value if value > 0 else 0.0


def summing(window, *, top=False):
    return np.sum(window.at(0, 0, 0))


def raw_reading(window, *, top=False):
    return window.raw[1, 1, 1]


def in_place(window, *, top=False):
    x = window.at(0, 0, 0)
    x += 1.0
    return x


class TestWindowContract:
    """Window functions must be elementwise arithmetic over ``at``: the
    check runs before the first cycle, on both paths alike."""

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("fn", [branching, summing, raw_reading])
    @pytest.mark.parametrize("role", ["interior", "boundary"])
    def test_non_elementwise_functions_rejected(self, fn, role, batched):
        block = np.random.default_rng(5).normal(size=(5, 5, 5))
        interior, boundary = (fn, zero) if role == "interior" else (zero, fn)
        out = np.zeros((3, 3, 5))
        with pytest.raises(ConfigurationError, match=fn.__name__):
            run_stencil_kernel(block, interior, boundary, out,
                               batched=batched)
        assert not out.any()

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("role", ["interior", "boundary"])
    def test_in_place_functions_rejected(self, role, batched):
        """A batched run's ``at`` is a read-only view of the block, so a
        function that writes into an operand is rejected before the
        first cycle, and the block is left as it was."""
        block = np.random.default_rng(5).normal(size=(5, 5, 5))
        before = block.copy()
        interior, boundary = ((in_place, zero) if role == "interior"
                              else (zero, in_place))
        out = np.zeros((3, 3, 5))
        with pytest.raises(ConfigurationError, match="in_place"):
            run_stencil_kernel(block, interior, boundary, out,
                               batched=batched)
        assert not out.any()
        assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize("batched", [False, True])
    def test_constant_and_identity_functions_run(self, batched):
        block = np.arange(5 * 6 * 4, dtype=float).reshape(5, 6, 4)
        out = np.full((3, 4, 4), np.nan)
        run_stencil_kernel(block, zero, zero, out, batched=batched)
        assert not out.any()
        run_stencil_kernel(
            block, lambda w: w.at(0, 0, 0),
            lambda w, *, top: w.at(0, 0, 1 if top else -1), out,
            batched=batched)
        np.testing.assert_array_equal(out, block[1:-1, 1:-1, :])
