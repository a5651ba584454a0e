"""Window-based advection arithmetic vs the scalar specification.

One expression per field serves both evaluation shapes: single
windows, the register model's or cut from a block, evaluate it on three
:class:`StencilWindow` objects, and the write stage evaluates every run
of the values fed on three :class:`WindowRun` views.  Both must give the
golden bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.golden import advect_cell
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.faults import FaultPlan, FaultSpec
from repro.kernel import compute, stages
from repro.kernel.compute import advect_u, advect_v, advect_w
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel
from repro.shiftbuffer.buffer3d import (
    ShiftBuffer3D,
    emission_boxes,
    emission_center,
)
from repro.shiftbuffer.window import StencilWindow, WindowRun

FORMS = (advect_u, advect_v, advect_w)


def cell_sources(u, v, w, coeffs):
    """All three source terms for one cell, as the three advect stages
    compute them from one stencil bundle."""
    return tuple(fn(u, v, w, coeffs) for fn in FORMS)


def window_at(arr, i, j, k, *, top=False):
    """Build a StencilWindow presenting arr's true neighbourhood of (i,j,k)."""
    raw = np.zeros((3, 3, 3))
    for s in range(3):
        for dy in range(3):
            for dz in range(3):
                kk = k - dz + (0 if top else 1)
                if 0 <= kk < arr.shape[2]:
                    raw[s, dy, dz] = arr[i + 1 - s, j + 1 - dy, kk]
                else:
                    raw[s, dy, dz] = np.nan  # stale register
    return StencilWindow(raw=raw, center=(i, j, k), top=top)


@pytest.fixture
def setup():
    grid = Grid(nx=5, ny=5, nz=6)
    fields = random_wind(grid, seed=99, magnitude=2.0)
    coeffs = AdvectionCoefficients.isothermal(grid)
    return grid, fields, coeffs


class TestAgainstGolden:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_interior_levels_bitwise(self, setup, k):
        grid, fields, coeffs = setup
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                wu = window_at(fields.u, i, j, k)
                wv = window_at(fields.v, i, j, k)
                ww = window_at(fields.w, i, j, k)
                su, sv, sw = cell_sources(wu, wv, ww, coeffs)
                gu, gv, gw = advect_cell(fields.u, fields.v, fields.w,
                                         coeffs, i, j, k, grid.nz)
                assert su == gu and sv == gv and sw == gw

    def test_column_top_bitwise(self, setup):
        grid, fields, coeffs = setup
        k = grid.nz - 1
        for i in (1, 3):
            for j in (2, 3):
                wu = window_at(fields.u, i, j, k, top=True)
                wv = window_at(fields.v, i, j, k, top=True)
                ww = window_at(fields.w, i, j, k, top=True)
                su, sv, sw = cell_sources(wu, wv, ww, coeffs)
                gu, gv, gw = advect_cell(fields.u, fields.v, fields.w,
                                         coeffs, i, j, k, grid.nz)
                assert su == gu and sv == gv
                assert sw == 0.0 == gw

    def test_top_never_touches_stale_plane(self, setup):
        """Top windows carry NaN in the dk=+1 registers; any illegal read
        would poison the result."""
        grid, fields, coeffs = setup
        k = grid.nz - 1
        wu = window_at(fields.u, 2, 2, k, top=True)
        wv = window_at(fields.v, 2, 2, k, top=True)
        ww = window_at(fields.w, 2, 2, k, top=True)
        su, sv, sw = cell_sources(wu, wv, ww, coeffs)
        assert np.isfinite(su) and np.isfinite(sv) and np.isfinite(sw)


class TestFieldFunctions:
    def test_w_zero_at_top(self, setup):
        grid, fields, coeffs = setup
        k = grid.nz - 1
        wu = window_at(fields.u, 2, 2, k, top=True)
        wv = window_at(fields.v, 2, 2, k, top=True)
        ww = window_at(fields.w, 2, 2, k, top=True)
        assert advect_w(wu, wv, ww, coeffs) == 0.0


class RecordingWindow:
    """A window that records every stencil offset a form reads."""

    def __init__(self, window):
        self._window = window
        self.center = window.center
        self.top = window.top
        self.reads = set()

    def at(self, di, dj, dk):
        self.reads.add((di, dj, dk))
        return self._window.at(di, dj, dk)


def recorded_reads(fn, fields, coeffs, k, *, top=False):
    """The distinct offsets ``fn`` reads from each field's window."""
    windows = [RecordingWindow(window_at(field, 2, 2, k, top=top))
               for field in (fields.u, fields.v, fields.w)]
    fn(*windows, coeffs)
    return [window.reads for window in windows]


class TestStencilReads:
    @pytest.mark.parametrize("own", range(3))
    def test_each_form_reads_15_values_over_9_offsets(self, setup, own):
        """The paper says "typically only 8" of the 27 values are needed
        per field advection; these forms read 7 offsets of their own
        field and 4 of each other field."""
        _grid, fields, coeffs = setup
        reads = recorded_reads(FORMS[own], fields, coeffs, 2)
        assert [len(r) for r in reads] == [7 if f == own else 4
                                           for f in range(3)]
        assert sum(len(r) for r in reads) == 15
        assert len(set().union(*reads)) == 9

    @pytest.mark.parametrize("own", range(3))
    def test_top_window_is_never_read_at_dk_plus_one(self, setup, own):
        """The top run relies on this: a column-top window's dk=+1
        registers hold the next column's values."""
        grid, fields, coeffs = setup
        reads = recorded_reads(FORMS[own], fields, coeffs, grid.nz - 1,
                               top=True)
        assert all(dk != 1 for field in reads for _di, _dj, dk in field)


def signed_block(rng, shape):
    """Random values with exact zeros of both signs mixed in."""
    block = rng.normal(size=shape)
    block[rng.random(shape) < 0.2] = 0.0
    block[rng.random(shape) < 0.1] = -0.0
    return block


class TestRunForms:
    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(3, 8), ny=st.integers(3, 8),
           nz=st.integers(3, 12), seed=st.integers(0, 2**16),
           data=st.data())
    def test_run_equals_each_window_byte_for_byte(self, nx, ny, nz, seed,
                                                  data):
        """Each form gives, on the full and top box runs of any emission
        range, the bytes it gives on every window
        ``ShiftBuffer3D.window_at`` cuts."""
        rng = np.random.default_rng(seed)
        blocks = [signed_block(rng, (nx, ny, nz)) for _ in range(3)]
        coeffs = AdvectionCoefficients.isothermal(
            Grid(nx=nx - 2, ny=ny - 2, nz=nz))
        buffer = ShiftBuffer3D(nx, ny, nz)
        total = (nx - 2) * (ny - 2) * (nz - 1)
        first = data.draw(st.integers(0, total), label="first")
        stop = data.draw(st.integers(first, total), label="stop")
        for x0, x1, y0, y1, z0, z1 in emission_boxes(first, stop, ny,
                                                     nz - 1):
            split = min(z1, nz - 1)
            for top, zs in ((False, (z0, split)), (True, (split, z1))):
                if zs[1] == zs[0]:
                    continue
                u = WindowRun(blocks[0], (x0, x1, y0, y1) + zs, top=top)
                emissions = [((cx - 1) * (ny - 2) + cy - 1) * (nz - 1) + cz - 1
                             for cx in range(x0, x1) for cy in range(y0, y1)
                             for cz in range(*zs)]
                windows = [[buffer.window_at(e, block) for block in blocks]
                           for e in emissions]
                assert all(w.top == top for ws in windows for w in ws)
                for fn in FORMS:
                    together = np.broadcast_to(
                        np.asarray(fn(u, u.on(blocks[1]), u.on(blocks[2]),
                                      coeffs), dtype=float), u.shape)
                    alone = np.array([fn(*ws, coeffs) for ws in windows],
                                     dtype=float)
                    assert together.tobytes() == alone.tobytes()


class TestAdvectStages:
    def test_scalar_and_batched_firings_call_one_form(self, monkeypatch):
        """Batched and forced-scalar runs pass each form full and top
        :class:`WindowRun` views only, fault-free and after a dropped
        word."""
        seen = set()
        for form in FORMS:
            def spy(u, v, w, coeffs, form=form):
                seen.add((form.__name__, type(u).__name__, u.top))
                return form(u, v, w, coeffs)
            monkeypatch.setattr(compute, form.__name__, spy)
        grid = Grid(nx=6, ny=6, nz=8)
        fields = random_wind(grid, seed=3, magnitude=2.0)
        for batched in (True, False):
            simulate_kernel(KernelConfig(grid=grid), fields, batched=batched)
        assert seen == {(form.__name__, "WindowRun", top) for form in FORMS
                        for top in (False, True)}
        seen.clear()
        # The first cell is dropped, so the first attempt's runs are
        # cut from the values fed; its retry runs healthy.
        plan = FaultPlan([FaultSpec(site="fifo", kind="drop",
                                    match="read_data.out->shift_buffer.in",
                                    probability=1.0, count=1)])
        result = simulate_kernel(KernelConfig(grid=grid), fields,
                                 fault_plan=plan)
        assert result.chunk_retries == 1
        assert seen == {(form.__name__, "WindowRun", top) for form in FORMS
                        for top in (False, True)}

    def test_advect_results_carry_an_emission_range(self, monkeypatch):
        """A batched window's advect results are the stage and a range
        of its bundles over the blocks, with no values and no coordinate
        arrays; u, v and w of one window cover the same range, and each
        one-result run evaluates exactly the cell at its emission's
        centre."""
        fired = {}
        original = stages.AdvectStage.fire_bulk

        def recording(self, count, inputs, cycle):
            result = original(self, count, inputs, cycle)
            fired.setdefault(cycle, {})[self.field] = [
                part for part in result.outputs["out"].parts()
                if isinstance(part, stages.ResultRun)]
            return result

        monkeypatch.setattr(stages.AdvectStage, "fire_bulk", recording)
        grid = Grid(nx=6, ny=6, nz=8)
        result = simulate_kernel(KernelConfig(grid=grid),
                                 random_wind(grid, seed=3, magnitude=2.0))
        assert result.aggregate_stats().batched_windows > 0
        ranges = 0
        for by_field in fired.values():
            for u, v, w in zip(by_field["u"], by_field["v"],
                               by_field["w"], strict=True):
                for field, part in zip("uvw", (u, v, w)):
                    assert not any(hasattr(part, name) for name in
                                   ("values", "cx", "cy", "cz", "center"))
                    assert part.stage.field == field
                    assert len(part) == part.stop - part.start
                    assert part.source is u.source
                assert (u.start, u.stop) == (v.start, v.stop) \
                    == (w.start, w.stop)
                head = u.slice(0, min(len(u), 3)).materialize()
                assert all(type(one) is stages.ResultRun
                           and one.stage is u.stage for one in head)
                assert [(one.start, len(one)) for one in head] == [
                    (e, 1) for e in range(u.start, u.start + len(head))]
                block = u.source[0]
                nx, ny, nz = block.shape
                for one in head:
                    out = np.full((nx - 2, ny - 2, nz), np.nan)
                    one.evaluate(out)
                    cx, cy, cz, _top = emission_center(one.start, ny, nz)
                    assert np.argwhere(~np.isnan(out)).tolist() == [
                        [cx - 1, cy - 1, cz]]
                ranges += 1
        assert ranges > 0
