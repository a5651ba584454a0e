"""Cross-mode behaviour of the generic stencil machine.

The shift-buffer stage summarises its control per streaming regime
(:meth:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D.regime`) and the
window-compute stage's output count depends on the window centre only,
so batched exact execution runs windows — also under the deprecated
``mode="fast"`` alias — and stays byte-for-byte identical to
forced-scalar execution: outputs, stats and memory-port reports.  These
tests pin that contract for both kernels built on the machine, and pin
that a batched window really runs vectorised: the kernels' own window
functions evaluated once on a :class:`~repro.shiftbuffer.window.WindowRun`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buoyancy import buoyancy_reference
from repro.core.diffusion import diffuse_reference
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.bulk import ListBulk
from repro.dataflow.stream import Stream
from repro.errors import FaultError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.kernel.generic import WindowComputeStage, run_stencil_kernel
from repro.kernel.stages import ShiftBufferStage, StencilBulk
from repro.scenarios import scenarios
from repro.scenarios.conformance import STATS_BATCH_KEYS
from repro.scenarios.kernels import BuoyancyKernel, DiffusionKernel
from repro.shiftbuffer.buffer3d import ShiftBuffer3D
from repro.shiftbuffer.ports import MemoryPortTracker
from repro.shiftbuffer.window import WindowRun


def run_field(kernel, fields, name, *, mode="exact", batched=True,
              tracker=None, stream_depth=4):
    grid = fields.grid
    out = np.zeros(grid.interior_shape)
    interior, boundary = kernel.window_fns(grid)
    stats = run_stencil_kernel(
        getattr(fields, name), interior, boundary, out,
        mode=mode, batched=batched, tracker=tracker,
        stream_depth=stream_depth)
    return out, stats


def identity_interior(window):
    return window.at(0, 0, 0)


def identity_boundary(window, *, top):
    return window.at(0, 0, 1 if top else -1)


#: Grids of every shape the machine accepts: blocks 3-8 wide in x and y
#: (interior 1-6) and 3-12 tall, so nz = 3 and its three-result windows
#: are drawn too.
grids = st.builds(Grid, nx=st.integers(1, 6), ny=st.integers(1, 6),
                  nz=st.integers(3, 12))


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
        grid = Grid(nx=4, ny=4, nz=4)
        interior, boundary = kernel.window_fns(grid)
        shift = ShiftBufferStage("s", (np.zeros((4, 4, 4)),), buffers=("s",),
                                 tops=False)
        compute = WindowComputeStage("c", 4, interior, boundary)
        for stage in (shift, compute):
            for cycle in (0, 10_000):
                assert isinstance(stage.ff_signature(cycle), tuple)
        assert shift.ff_signature(0)[-1:] == ("prime",)
        # The key follows the firing count, which only ticks (and
        # batched commits) move.
        shift.bind_input("in", Stream("in", depth=2 * 4 * 4))
        shift.bind_output("out", Stream("out", depth=2 * 4 * 4))
        for cycle in range(2 * 4 * 4):
            shift.inputs["in"].push(cycle)
            shift.tick(cycle)
        assert shift.ff_signature(0)[-3:] == (2, 0, 0)

    @settings(max_examples=12, deadline=None)
    @given(grid=grids, stream_depth=st.integers(4, 8),
           seed=st.integers(0, 2**16))
    def test_batched_exact_matches_scalar_byte_for_byte(
            self, kernel, reference, grid, stream_depth, seed):
        fields = random_wind(grid, seed=seed, magnitude=2.0)
        expected = reference(fields)
        for name, ref in (("u", expected.su), ("v", expected.sv),
                          ("w", expected.sw)):
            s_tracker = MemoryPortTracker(enforce=True)
            b_tracker = MemoryPortTracker(enforce=True)
            scalar, s_stats = run_field(kernel, fields, name,
                                        batched=False, tracker=s_tracker,
                                        stream_depth=stream_depth)
            batched, b_stats = run_field(kernel, fields, name,
                                         batched=True, tracker=b_tracker,
                                         stream_depth=stream_depth)
            np.testing.assert_array_equal(scalar, batched)
            np.testing.assert_array_equal(scalar, ref)
            assert s_stats.cycles == b_stats.cycles
            assert stats_minus_batching(s_stats) \
                == stats_minus_batching(b_stats)
            assert s_tracker.reports() == b_tracker.reports()
        block = fields.u
        for batched in (False, True):
            out = np.zeros(grid.interior_shape)
            run_stencil_kernel(block, identity_interior, identity_boundary,
                               out, batched=batched,
                               stream_depth=stream_depth)
            np.testing.assert_array_equal(out, block[1:-1, 1:-1, :])

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


class TestVectorisedWindows:
    @pytest.mark.parametrize("kernel", [DiffusionKernel(nu=1.5),
                                        BuoyancyKernel()])
    def test_batched_windows_feed_no_scalar_values(self, kernel,
                                                   monkeypatch):
        """A batched window jumps the buffer ahead with feed_bulk
        instead of firing the shift stage once per value, and no cycle
        calls ShiftBuffer3D.feed."""
        calls = []
        feed = ShiftBuffer3D.feed

        def counting_feed(buffer, value):
            calls.append(value)
            return feed(buffer, value)

        monkeypatch.setattr(ShiftBuffer3D, "feed", counting_feed)
        grid = Grid(nx=6, ny=5, nz=7)
        fields = random_wind(grid, seed=4)
        _out, stats = run_field(kernel, fields, "u")
        assert stats.batched_cycles > 0
        assert len(calls) <= stats.cycles - stats.batched_cycles

    def test_a_stream_that_lost_a_word_takes_the_per_item_path(self):
        """A dropped feed word shifts the stream off the block; batched
        and forced-scalar runs still fail alike."""
        grid = Grid(nx=6, ny=6, nz=6)
        fields = random_wind(grid, seed=3)
        interior, boundary = DiffusionKernel().window_fns(grid)
        outcomes = []
        for batched in (False, True):
            plan = FaultPlan([FaultSpec("fifo", "drop",
                                        match="read.out->shift.in",
                                        probability=0.01, count=1)])
            with pytest.raises(FaultError) as info:
                run_stencil_kernel(fields.u, interior, boundary,
                                   np.zeros(grid.interior_shape),
                                   batched=batched, fault_plan=plan)
            outcomes.append((str(info.value), plan.trace_key()))
        assert outcomes[0] == outcomes[1]

    def test_backed_stage_forwards_the_windows_fire_forwards(self):
        """A batched firing forwards one lazy run; a second stage's
        scalar firings forward one-bundle runs.  Both hold the same
        windows."""
        block = np.arange(4 * 5 * 4, dtype=float).reshape(4, 5, 4)
        scalar = ShiftBufferStage("s", (block,), buffers=("s",), tops=False)
        batched = ShiftBufferStage("s", (block,), buffers=("s",), tops=False)
        cells = list(range(block.size))
        looped = [run for cell in cells
                  for run in scalar.fire(0, {"in": [cell]}).get("out", [])]
        bulk = batched.fire_bulk(len(cells), {"in": ListBulk(cells)}, 0)
        windows = 2 * 3 * 2
        assert len(looped) == bulk.producing_firings == windows
        run = bulk.head_bulk("out", windows)
        assert isinstance(run, StencilBulk)
        for (mine,), (theirs,) in zip(
                map(run.bundle_at, range(run.start, run.stop)),
                [one.bundle_at(one.start) for one in looped], strict=True):
            assert mine.center == theirs.center
            np.testing.assert_array_equal(mine.raw, theirs.raw)


def stencil_kernels():
    return [scenario.kernel for scenario in scenarios()
            if hasattr(scenario.kernel, "window_fns")]


class TestRunView:
    @settings(max_examples=20, deadline=None)
    @given(grid=grids, seed=st.integers(0, 2**16))
    def test_run_view_equals_window_at_one_by_one(self, grid, seed):
        """Every registered stencil kernel's window functions give, on
        each box run and each of its boundary layers, the bytes they
        give on each window alone."""
        block = np.random.default_rng(seed).normal(size=grid.halo_shape)
        buffer = ShiftBuffer3D(*block.shape)
        run = StencilBulk(buffer, (block,), 0,
                          grid.nx * grid.ny * (grid.nz - 2), grid.nz - 2)
        by_center = {w.center: w for (w,) in map(
            run.bundle_at, range(run.start, run.stop))}
        views = [WindowRun(block, box) for box in run.boxes()]
        walk = [center for view in views for center in zip(
            *(c.reshape(-1).tolist()
              for c in np.broadcast_arrays(*view.center)))]
        assert walk == list(by_center)
        for kernel in stencil_kernels():
            interior, boundary = kernel.window_fns(grid)
            for view in views:
                x0, x1, y0, y1, z0, z1 = view.box
                for fn, layer, kwargs in (
                        (interior, (z0, z1), {}),
                        (boundary, (1, 2), {"top": False}),
                        (boundary, (grid.nz - 2, grid.nz - 1),
                         {"top": True})):
                    if not (z0 <= layer[0] and layer[1] <= z1):
                        continue
                    sub = WindowRun(block, (x0, x1, y0, y1) + layer)
                    together = np.broadcast_to(fn(sub, **kwargs), sub.shape)
                    alone = np.array([
                        fn(by_center[(x, y, z)], **kwargs)
                        for x in range(x0, x1) for y in range(y0, y1)
                        for z in range(*layer)])
                    assert together.tobytes() == alone.tobytes()

    def test_at_is_a_read_only_view_and_checks_offsets(self):
        block = np.arange(5 * 5 * 5, dtype=float).reshape(5, 5, 5)
        (box,) = StencilBulk(ShiftBuffer3D(5, 5, 5), (block,), 0, 9,
                             3).boxes()
        view = WindowRun(block, box)
        values = view.at(1, 0, -1)
        with pytest.raises(ValueError):
            values += 1000.0
        assert block.max() < 1000.0
        cx, cy, cz = view.center
        np.testing.assert_array_equal(view.at(1, 0, -1),
                                      block[cx + 1, cy, cz - 1])
        with pytest.raises(ValueError):
            view.at(0, 2, 0)
