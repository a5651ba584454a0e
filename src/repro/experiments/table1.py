"""Table I: kernel-only performance at 16M cells.

Compares one core of the Xeon, all 24 cores, the V100, and a *single* HLS
kernel on each FPGA — ignoring PCIe transfer, exactly as the paper's
kernel-only table does.  The percentage-of-theoretical column uses the
paper's dataflow peak metric; the percentage-of-CPU column is relative to
the 24-core figure.
"""

from __future__ import annotations

from repro.core.flops import grid_flops
from repro.experiments.common import paper_grid, standard_config
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.report import text_table
from repro.hardware.devices import (ALVEO_U280, STRATIX10_GX2800,
                                    TESLA_V100, XEON_8260M)
from repro.perf.calibration import paper_value
from repro.perf.metrics import compare_to_paper
from repro.perf.theoretical import percent_of_theoretical

__all__ = ["run_table1"]

_GRID_LABEL = "16M"


@register("table1")
def run_table1() -> ExperimentResult:
    grid = paper_grid(_GRID_LABEL)
    config = standard_config(_GRID_LABEL)
    flops = grid_flops(grid)

    rows: list[tuple] = []

    # -- CPU ---------------------------------------------------------------
    cpu1 = XEON_8260M.gflops(1)
    cpu24 = XEON_8260M.gflops(24)
    rows.append(("1 core of Xeon CPU", cpu1, None, None))
    rows.append(("24 core Xeon CPU", cpu24, None, 100.0))

    # -- GPU (whole device, data resident) -----------------------------------
    gpu = flops / TESLA_V100.kernel_time(grid) / 1e9
    rows.append(("NVIDIA V100 GPU", gpu, None, 100.0 * gpu / cpu24))

    # -- single FPGA kernels -----------------------------------------------------
    u280 = ALVEO_U280.invocation(config, grid, num_kernels=1,
                                 memory="hbm2").gflops(grid)
    rows.append((
        "Xilinx Alveo U280", u280,
        percent_of_theoretical(u280, ALVEO_U280.clock.frequency_mhz(1)),
        100.0 * u280 / cpu24,
    ))
    stratix = STRATIX10_GX2800.invocation(config, grid,
                                          num_kernels=1).gflops(grid)
    rows.append((
        "Intel Stratix 10", stratix,
        percent_of_theoretical(stratix,
                               STRATIX10_GX2800.clock.frequency_mhz(1)),
        100.0 * stratix / cpu24,
    ))

    headers = ("description", "gflops", "% theoretical", "% cpu")
    comparisons = [
        compare_to_paper("cpu 1-core GFLOPS", cpu1,
                         paper_value("table1.cpu_1core_gflops")),
        compare_to_paper("cpu 24-core GFLOPS", cpu24,
                         paper_value("table1.cpu_24core_gflops")),
        compare_to_paper("V100 GFLOPS", gpu,
                         paper_value("table1.v100_gflops")),
        compare_to_paper("U280 GFLOPS", u280,
                         paper_value("table1.u280_gflops")),
        compare_to_paper("Stratix 10 GFLOPS", stratix,
                         paper_value("table1.stratix_gflops")),
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Table I: kernel-only performance, 16M grid cells",
        headers=headers,
        rows=rows,
        text=text_table(headers, rows,
                        title="Table I (kernel-only, 16M cells)"),
        comparisons=comparisons,
    )
