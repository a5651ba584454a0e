#!/usr/bin/env python3
"""Quickstart: compute PW advection three ways and compare.

1. The vectorised NumPy reference (the scientific ground truth).
2. The cycle-accurate kernel ticked one cycle at a time (chunked, every
   value streamed through the real 3D shift-buffer data structures of
   the paper's Fig. 3).
3. The same simulation of the full Fig. 2 kernel with batched windows,
   which also reports cycles, throughput and port pressure.

All three must agree bit for bit; the cycle simulation additionally shows
the machine running at initiation interval 1.

Run:  python examples/quickstart.py
"""

from repro.core import (
    AdvectionCoefficients,
    Grid,
    advect_reference,
    thermal_bubble,
)
from repro.kernel import KernelConfig, KernelCycleModel, simulate_kernel
from repro.perf.theoretical import percent_of_theoretical, theoretical_gflops


def main() -> None:
    # A small grid so the cycle-accurate path finishes instantly; the MONC
    # default column height is 64, here we shrink everything.
    grid = Grid(nx=8, ny=12, nz=8)
    fields = thermal_bubble(grid)
    coeffs = AdvectionCoefficients.isothermal(grid)
    config = KernelConfig(grid=grid, chunk_width=4)

    print(f"grid: {grid.interior_shape} = {grid.num_cells} cells, "
          f"{config.chunk_plan().num_chunks} Y-chunks of width "
          f"{config.chunk_width}")

    # --- 1. reference ------------------------------------------------------
    reference = advect_reference(fields, coeffs)
    print(f"reference: |su|max = {abs(reference.su).max():.3e}")

    # --- 2. forced-scalar shift-buffer execution ----------------------------
    scalar = simulate_kernel(config, fields, coeffs, batched=False)
    print("scalar shift-buffer run matches reference:",
          scalar.sources.max_abs_difference(reference) == 0.0)

    # --- 3. cycle-accurate dataflow simulation, batched ---------------------
    sim = simulate_kernel(config, fields, coeffs)
    print("batched simulation matches reference:     ",
          sim.sources.max_abs_difference(reference) == 0.0)
    print(f"simulated cycles: {sim.total_cycles} "
          f"({sim.cells_per_cycle:.2f} cells/cycle)")
    print(f"closed-form model: {KernelCycleModel(config).cycles()} cycles "
          f"(must match the simulator exactly)")
    print(f"on-chip port pressure: max "
          f"{sim.port_tracker.worst_case} accesses/cycle "
          f"(dual-ported BRAM allows 2)")

    # --- the paper's performance yardstick -----------------------------------
    peak = theoretical_gflops(300.0, column_height=grid.nz)
    runtime = sim.runtime_seconds(300e6)
    from repro.core.flops import grid_flops

    achieved = grid_flops(grid) / runtime / 1e9
    print(f"\nat 300 MHz this run would take {runtime * 1e6:.1f} us: "
          f"{achieved:.2f} GFLOPS "
          f"= {percent_of_theoretical(achieved, 300.0, column_height=grid.nz):.0f}% "
          f"of the {peak:.2f} GFLOPS theoretical peak")
    print("(small grids pay pipeline fill; paper-scale grids reach >95%)")


if __name__ == "__main__":
    main()
