"""Kernel-count scaling (the implicit curve behind Section IV).

Sweeps the number of kernel replicas on both FPGAs, kernel-only and
end-to-end, showing (a) near-linear kernel-only scaling on banked HBM2,
(b) sub-linear kernel-only scaling on the Stratix 10's DDR, where one or
two replicas are bound by the per-kernel DDR rate and three to five by
the clock, which derates from 398 to 250 MHz (the 76.8 GB/s aggregate
is never the bound), and (c) that end-to-end the extra kernels barely
matter — transfer-bound, the Section IV punchline.
"""

from repro.core.flops import grid_flops
from repro.experiments.common import paper_grid, standard_config
from repro.experiments.report import text_table
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.runtime.session import AdvectionSession


def test_kernel_count_scaling(benchmark, save_result):
    grid = paper_grid("16M")
    config = standard_config()
    flops = grid_flops(grid)

    def run():
        rows = []
        for device, max_kernels, memory in (
                (ALVEO_U280, 6, "hbm2"), (STRATIX10_GX2800, 5, "ddr")):
            for kernels in range(1, max_kernels + 1):
                kernel_only = flops / device.invocation(
                    config, grid, num_kernels=kernels,
                    memory=memory).seconds / 1e9
                session = AdvectionSession(device, config,
                                           num_kernels=kernels,
                                           memory=memory)
                overall = session.run(grid, overlapped=True).gflops
                rows.append((device.name, kernels,
                             device.clock.frequency_mhz(kernels),
                             kernel_only, overall))
        return rows

    rows = benchmark(run)
    table = text_table(
        ("device", "kernels", "MHz", "kernel-only GFLOPS",
         "overall GFLOPS"),
        rows, precision=1,
        title="Kernel-count scaling at 16M cells")
    save_result("kernel_scaling", table)
    print()
    print(table)

    u280 = [r for r in rows if "U280" in r[0]]
    stratix = [r for r in rows if "Stratix" in r[0]]

    # (a) Kernel-only scaling on banked HBM2 is near linear.
    assert u280[-1][3] > 5.0 * u280[0][3]
    # (b) The Stratix's kernel-only scaling is sub-linear: each replica
    # derates the clock, which binds from three replicas on.
    assert stratix[-1][3] < 4.0 * stratix[0][3]
    # (c) End-to-end, going from 1 to max kernels buys far less than the
    # kernel-only ratio — the workload is transfer-bound (Section IV).
    u280_kernel_ratio = u280[-1][3] / u280[0][3]
    u280_overall_ratio = u280[-1][4] / u280[0][4]
    assert u280_overall_ratio < 0.5 * u280_kernel_ratio
    # More kernels never hurt end to end.
    overall = [r[4] for r in u280]
    assert all(b >= a - 1e-9 for a, b in zip(overall, overall[1:]))
