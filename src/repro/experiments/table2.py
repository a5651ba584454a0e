"""Table II: HBM2 versus DDR-DRAM on the Alveo U280.

A single kernel, kernel-only timing, across 1M/4M/16M/67M grid cells from
each memory space; the "overhead" column is the paper's
``HBM2/DDR - 1`` percentage.
"""

from __future__ import annotations

from repro.experiments.common import TABLE2_SIZES, paper_grid, standard_config
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.report import text_table
from repro.hardware.devices import ALVEO_U280
from repro.perf.calibration import paper_value
from repro.perf.metrics import compare_to_paper

__all__ = ["run_table2"]


@register("table2")
def run_table2() -> ExperimentResult:
    config = standard_config()
    rows: list[tuple] = []
    measured: dict[tuple[str, str], float] = {}
    for label in TABLE2_SIZES:
        grid = paper_grid(label)
        hbm = ALVEO_U280.invocation(config.for_grid(grid), grid,
                                    num_kernels=1, memory="hbm2").gflops(grid)
        ddr = ALVEO_U280.invocation(config.for_grid(grid), grid,
                                    num_kernels=1, memory="ddr").gflops(grid)
        measured[("hbm2", label)] = hbm
        measured[("ddr", label)] = ddr
        rows.append((label, hbm, ddr, 100.0 * (hbm / ddr - 1.0)))

    headers = ("grid points", "hbm2 gflops", "ddr gflops", "ddr overhead %")
    comparisons = [
        compare_to_paper("U280 HBM2 @16M", measured[("hbm2", "16M")],
                         paper_value("table2.hbm2_16m_gflops")),
        compare_to_paper("U280 DDR @16M", measured[("ddr", "16M")],
                         paper_value("table2.ddr_16m_gflops")),
        compare_to_paper("U280 HBM2 @1M", measured[("hbm2", "1M")],
                         paper_value("table2.hbm2_1m_gflops")),
        compare_to_paper(
            "DDR overhead @16M (%)",
            100.0 * (measured[("hbm2", "16M")] / measured[("ddr", "16M")] - 1.0),
            paper_value("table2.ddr_overhead_16m_pct"),
        ),
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Table II: HBM2 vs DDR-DRAM on the Alveo U280 (single kernel)",
        headers=headers,
        rows=rows,
        text=text_table(headers, rows,
                        title="Table II (U280 HBM2 vs DDR, kernel-only)"),
        comparisons=comparisons,
    )
