"""Property tests: random scenario configurations stay bit-identical.

Hypothesis draws random grid shapes from each scenario's grid-family
bounds (plus random field seeds) and asserts the engine invariant on
every draw: batched exact equals forced-scalar equals the NumPy
reference, byte for byte, with the same stats apart from the batching
bookkeeping — and the batched run really batches.  Random shapes have no
structure for an off-by-one to hide behind.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fields import SOURCE_NAMES
from repro.core.grid import Grid
from repro.dataflow.engine import ControlRecord
from repro.scenarios import get
from repro.scenarios.conformance import STATS_BATCH_KEYS

_SLOW = (HealthCheck.too_slow,)


def grid_for(scenario_name: str, draw) -> Grid:
    """A random grid inside the scenario's declared family bounds."""
    bounds = get(scenario_name).grids.bounds
    dims = [draw(st.integers(min_value=lo, max_value=hi))
            for lo, hi in bounds]
    return Grid(nx=dims[0], ny=dims[1], nz=dims[2])


def stats_minus_batching(result) -> dict:
    return {key: value for key, value in result.stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}


def assert_modes_agree(scenario_name: str, grid: Grid, seed: int) -> None:
    scenario = get(scenario_name)
    scalar = scenario.run(grid, seed=seed, mode="exact", batched=False)
    batched = scenario.run(grid, seed=seed, mode="exact", batched=True)
    references = scenario.reference(grid, seed=seed)
    assert scalar.total_cycles == batched.total_cycles
    assert batched.stats.batched_cycles > 0
    assert stats_minus_batching(scalar) == stats_minus_batching(batched)
    for out_s, out_b, ref in zip(scalar.batches, batched.batches,
                                 references):
        for name in SOURCE_NAMES:
            np.testing.assert_array_equal(getattr(out_s, name),
                                          getattr(out_b, name))
            np.testing.assert_array_equal(getattr(out_s, name),
                                          getattr(ref, name))
        # Signed zeros too: batched box views and forced-scalar windows
        # must agree byte for byte.
        assert out_b.same_bits(out_s)
        assert out_s.same_bits(ref)
    # A pass that shares a control record with a pass over other data
    # replays every engine run: no scalar cycle, the same bytes, and
    # (one batch) the same statistics as forced scalar ticking.
    record = ControlRecord()
    scenario.kernel.run(scenario.make_fields(grid, seed=seed + 1),
                        record=record)
    sources, stats, cycles = scenario.kernel.run(
        scenario.make_fields(grid, seed=seed), record=record)
    assert stats.batched_cycles == stats.cycles == cycles
    assert sources.same_bits(scalar.batches[0])
    if scenario.batch == 1:
        assert {key: value for key, value in stats.to_dict().items()
                if key not in STATS_BATCH_KEYS} \
            == stats_minus_batching(scalar)


class TestRandomConfigurations:
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None, suppress_health_check=_SLOW)
    def test_diffusion(self, data, seed):
        grid = grid_for("diffusion", data.draw)
        assert_modes_agree("diffusion", grid, seed)

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None, suppress_health_check=_SLOW)
    def test_buoyancy(self, data, seed):
        grid = grid_for("buoyancy", data.draw)
        assert_modes_agree("buoyancy", grid, seed)

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None, suppress_health_check=_SLOW)
    def test_advection_cubic(self, data, seed):
        grid = grid_for("pw-advection", data.draw)
        assert_modes_agree("pw-advection", grid, seed)

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None, suppress_health_check=_SLOW)
    def test_advection_open_boundary(self, data, seed):
        grid = grid_for("pw-advection-open", data.draw)
        assert_modes_agree("pw-advection-open", grid, seed)

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16),
           name=st.sampled_from(["diffusion", "buoyancy"]))
    @settings(max_examples=8, deadline=None, suppress_health_check=_SLOW)
    def test_generic_kernels_at_nz_3(self, data, seed, name):
        """One window per column: each window fires its cell and both
        boundary cells, so every box's boundary layers coincide."""
        grid = grid_for(name, data.draw)
        assert_modes_agree(name, Grid(nx=grid.nx, ny=grid.ny, nz=3), seed)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None, suppress_health_check=_SLOW)
    def test_batch_scenario(self, seed):
        scenario = get("diffusion-batch")
        assert_modes_agree("diffusion-batch", scenario.small_grid(), seed)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None, suppress_health_check=_SLOW)
    def test_derived_peak_matches_family_height(self, data):
        """ops/cycle derives from whatever column height is drawn."""
        grid = grid_for("pw-advection-tall", data.draw)
        model = get("pw-advection-tall").kernel.op_model
        expected = ((grid.nz - 1) * 63 + 55) / grid.nz
        assert model.ops_per_cycle(grid.nz) == expected
