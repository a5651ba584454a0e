"""Precision-dependent resource projection (the §V question)."""

import pytest

from repro.core.grid import Grid
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.config import KernelConfig
from repro.precision import (
    BFLOAT16,
    FLOAT32,
    FLOAT64,
    precision_fit_report,
    precision_kernel_resources,
)
from repro.tune.cost import CostModel, point_identity_check


@pytest.fixture(scope="module")
def config():
    return KernelConfig(grid=Grid.from_cells(16 * 1024 * 1024))


class TestResourceScaling:
    def test_float64_is_identity(self, config):
        for device in (ALVEO_U280, STRATIX10_GX2800):
            assert precision_kernel_resources(config, device, FLOAT64) == \
                device.kernel_resources(config)
            # The anchor every tuning report's context carries.
            assert point_identity_check(CostModel(device, config.grid))

    def test_narrower_formats_shrink_everything(self, config):
        base = precision_kernel_resources(config, ALVEO_U280, FLOAT64)
        f32 = precision_kernel_resources(config, ALVEO_U280, FLOAT32)
        bf16 = precision_kernel_resources(config, ALVEO_U280, BFLOAT16)
        assert bf16.dsp < f32.dsp < base.dsp
        assert bf16.luts < f32.luts < base.luts
        assert bf16.bram_bytes < f32.bram_bytes < base.bram_bytes

    def test_buffer_scales_linearly_with_bits(self, config):
        base = precision_kernel_resources(config, ALVEO_U280, FLOAT64)
        f32 = precision_kernel_resources(config, ALVEO_U280, FLOAT32)
        assert f32.bram_bytes == pytest.approx(base.bram_bytes / 2, rel=0.01)

    def test_multipliers_scale_quadratically(self, config):
        base = precision_kernel_resources(config, ALVEO_U280, FLOAT64)
        f32 = precision_kernel_resources(config, ALVEO_U280, FLOAT32)
        # DSP cost is 80% quadratic-multiplier dominated: float32's
        # (24/53)^2 ~ 0.205 gives roughly a 3.5-4x reduction.
        assert base.dsp / f32.dsp > 3.0


class TestFitReports:
    def test_paper_motivation_more_kernels_fit(self, config):
        """§V: reduced precision 'enabling more kernels to be fitted'."""
        for device in (ALVEO_U280, STRATIX10_GX2800):
            report = precision_fit_report(config, device, FLOAT32)
            assert report.kernels_fit > report.kernels_fit_float64
            assert report.extra_kernels > 0

    def test_float64_report_matches_baseline(self, config):
        report = precision_fit_report(config, ALVEO_U280, FLOAT64)
        assert report.kernels_fit == report.kernels_fit_float64 == 6

    def test_projected_peak_scales_with_fit(self, config):
        f64 = precision_fit_report(config, ALVEO_U280, FLOAT64)
        f32 = precision_fit_report(config, ALVEO_U280, FLOAT32)
        assert f32.projected_peak_gflops > 2 * f64.projected_peak_gflops

    def test_bfloat16_fits_dozens(self, config):
        report = precision_fit_report(config, ALVEO_U280, BFLOAT16)
        assert report.kernels_fit >= 20
