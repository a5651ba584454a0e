"""The scenario registry: builtins, validation, and CLI coverage."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    GridFamily,
    Scenario,
    get,
    names,
    register,
    scenarios,
    unregistered_cli_kernels,
)
from repro.scenarios.registry import CLI_KERNEL_MODULES

EXPECTED_BUILTINS = (
    "buoyancy",
    "diffusion",
    "diffusion-batch",
    "pw-advection",
    "pw-advection-open",
    "pw-advection-tall",
)


class TestRegistry:
    def test_builtin_suite(self):
        assert names() == EXPECTED_BUILTINS

    def test_suite_spans_the_required_axes(self):
        kinds = {s.kernel.kind for s in scenarios()}
        assert kinds == {"advection", "diffusion", "buoyancy"}
        assert any(s.boundary == "open" for s in scenarios())
        assert any(s.batch > 1 for s in scenarios())
        heights = {s.grids.column_height for s in scenarios()}
        assert len(heights) >= 3  # cubic, tall, flat families

    def test_get_unknown_is_a_helpful_error(self):
        with pytest.raises(ConfigurationError, match="registered:"):
            get("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        existing = get("diffusion")
        with pytest.raises(ConfigurationError, match="already registered"):
            register(existing)
        # Explicit replacement is allowed (and is a no-op here).
        assert register(existing, replace=True) is existing

    def test_grids_construct_and_respect_bounds(self):
        """Both named shapes build; the conformance (small) shape must
        fall inside the property-test draw bounds.  The CLI default may
        exceed them — bounds price forced-scalar runs, defaults don't."""
        for scenario in scenarios():
            default = scenario.default_grid()
            small = scenario.small_grid()
            assert scenario.grids.contains(small)
            assert small.num_cells <= default.num_cells

    def test_to_dict_shape(self):
        payload = get("pw-advection").to_dict()
        for key in ("name", "kind", "boundary", "wind", "batch",
                    "batch_admissible", "op_model", "ops_per_cycle",
                    "grid_family"):
            assert key in payload
        assert payload["kind"] == "advection"
        assert payload["batch_admissible"] is True

    def test_open_boundary_rebuilds_zero_halos(self):
        scenario = get("pw-advection-open")
        fields = scenario.make_fields(scenario.small_grid())
        assert float(abs(fields.u[0, :, :]).max()) == 0.0
        assert float(abs(fields.u[-1, :, :]).max()) == 0.0

    def test_batches_draw_distinct_fields(self):
        scenario = get("diffusion-batch")
        grid = scenario.small_grid()
        first = scenario.make_fields(grid, seed=0, batch_index=0)
        second = scenario.make_fields(grid, seed=0, batch_index=1)
        assert not (first.u == second.u).all()


class TestScenarioValidation:
    def _family(self):
        return GridFamily("t", default=(4, 4, 4), small=(3, 3, 3),
                          bounds=((3, 8), (3, 8), (3, 8)))

    def test_bad_boundary(self):
        with pytest.raises(ConfigurationError, match="boundary"):
            Scenario(name="x", title="t", description="d",
                     kernel=get("diffusion").kernel, grids=self._family(),
                     boundary="reflecting")

    def test_bad_wind(self):
        with pytest.raises(ConfigurationError, match="wind"):
            Scenario(name="x", title="t", description="d",
                     kernel=get("diffusion").kernel, grids=self._family(),
                     wind="hurricane")

    def test_bad_batch(self):
        with pytest.raises(ConfigurationError, match="batch"):
            Scenario(name="x", title="t", description="d",
                     kernel=get("diffusion").kernel, grids=self._family(),
                     batch=0)

    def test_grid_family_needs_vertical_stencil_room(self):
        with pytest.raises(ConfigurationError, match="nz"):
            GridFamily("bad", default=(4, 4, 2), small=(3, 3, 3),
                       bounds=((3, 8), (3, 8), (3, 8)))


class TestCliCoverage:
    def test_every_cli_kernel_is_registered(self):
        """A kernel reachable from ``repro`` must be in the suite."""
        assert unregistered_cli_kernels() == ()

    def test_module_map_names_real_modules(self):
        import importlib

        for module in CLI_KERNEL_MODULES:
            importlib.import_module(module)
