"""Experiment-harness plumbing: workloads, runner, run_all."""

import pytest

from repro import constants
from repro.errors import ConfigurationError, GridError
from repro.experiments.common import (
    MULTI_KERNEL_SIZES,
    TABLE2_SIZES,
    paper_grid,
    standard_config,
)
from repro.experiments.run_all import main as run_all_main


class TestWorkloads:
    def test_paper_grid_sizes_match_labels(self):
        for label, cells in constants.PAPER_GRID_LABELS.items():
            grid = paper_grid(label)
            assert abs(grid.num_cells - cells) / cells < 0.01

    def test_unknown_label_rejected(self):
        with pytest.raises(GridError):
            paper_grid("3M")

    def test_standard_config_defaults(self):
        config = standard_config()
        assert config.grid.nz == constants.DEFAULT_COLUMN_HEIGHT
        assert config.shift_buffer_ii == 1
        assert config.word_bytes == 8

    def test_sweep_sizes_are_paper_sizes(self):
        assert set(MULTI_KERNEL_SIZES) <= set(constants.PAPER_GRID_LABELS)
        assert set(TABLE2_SIZES) <= set(constants.PAPER_GRID_LABELS)


class TestRunAll:
    def test_run_all_single(self, capsys):
        assert run_all_main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "paper-vs-measured" in out

    def test_run_all_everything(self, capsys):
        assert run_all_main([]) == 0
        out = capsys.readouterr().out
        for marker in ("Table I", "Table II", "Fig. 5", "Fig. 6",
                       "Fig. 7", "Fig. 8"):
            assert marker in out


class TestConstants:
    def test_average_ops_rejects_short_column(self):
        with pytest.raises(ConfigurationError):
            constants.average_ops_per_cycle(1)

    def test_transfer_payload_constant(self):
        # 6 fields x 8 bytes x ~16.78M cells ~= 800 MB (section IV).
        assert constants.PAPER_16M_TRANSFER_BYTES == pytest.approx(
            805e6, rel=0.01)
