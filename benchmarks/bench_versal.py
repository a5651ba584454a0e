"""The §V next-generation projection, quantified.

Places the Versal VC1902 and Stratix 10 NX AI-engine projections on the
advection kernel's roofline and compares them with the measured Fig. 6
levels of the current-generation devices — the "will likely further
close the gap between FPGAs and GPUs" claim, made runnable.
"""

from repro.backend import STRATIX10_NX_PROJECTION, VERSAL_VC1902
from repro.experiments.report import text_table
from repro.experiments.sweeps import sweep


def test_next_generation_projection(benchmark, save_result):
    def run():
        rows = []
        for proj in (VERSAL_VC1902, STRATIX10_NX_PROJECTION):
            rows.append((
                proj.name,
                proj.compute_peak_gflops,
                proj.attainable_gflops(),
                proj.feed_bound,
            ))
        return rows

    rows = benchmark(run)
    current = sweep(overlapped=True)
    u280 = current[("u280", "16M")]
    gpu = current[("v100", "16M")]
    assert u280 is not None and gpu is not None

    context = [
        ("Alveo U280 (Fig. 6, measured model)", None, u280.gflops, None),
        ("Tesla V100 (Fig. 6, measured model)", None, gpu.gflops, None),
    ]
    table = text_table(
        ("device", "raw peak GFLOPS", "attainable GFLOPS", "feed bound"),
        rows + context, precision=1,
        title="SV projection: AI-engine devices on the PW kernel")
    save_result("versal_projection", table)
    print()
    print(table)

    # The paper's prediction: the data-feed, not arithmetic, is the limit,
    # and the projected devices close the FPGA-GPU gap by a wide margin.
    for name, peak, attainable, feed_bound in rows:
        assert feed_bound, name
        assert attainable > 10 * u280.gflops, name
        assert attainable > gpu.gflops, name
