"""Structural graph builder: the Fig. 2 wiring without field data.

:func:`repro.kernel.builder.build_advection_graph` needs concrete wind
fields and output arrays because it *executes*; the linter only needs the
topology, port wiring, FIFO depths, and stage timing.  This builder mirrors
the production wiring stage for stage and stream for stream — same names,
same ports, same depths — using lightweight
:class:`~repro.lint.spec.SpecStage` stand-ins, so graph-family rules see
exactly the shape the simulator would run, at any grid size, without
allocating a single field array.

The advect stages carry the per-field FLOP declarations
(:func:`repro.core.flops.field_flops`), which is what lets the accounting
rules cross-check a graph against the 63/55-op model.
"""

from __future__ import annotations

from repro.core.flops import field_flops
from repro.dataflow.graph import DataflowGraph
from repro.errors import ConfigurationError
from repro.kernel.config import KernelConfig
from repro.lint.spec import SpecStage

__all__ = ["build_structural_graph"]


def build_structural_graph(config: KernelConfig, *, name: str = "advection",
                           read_ii: int = 1) -> DataflowGraph:
    """The Fig. 2 dataflow topology implied by ``config``, data-free.

    Mirrors :func:`repro.kernel.builder.build_advection_graph`:
    ``read_data -> shift_buffer -> replicate -> advect_{u,v,w} ->
    write_data``, with every stream at ``config.stream_depth``.
    """
    if read_ii < 1:
        raise ConfigurationError(f"read_ii must be >= 1, got {read_ii}")
    graph = DataflowGraph(name)
    read = graph.add(SpecStage(
        "read_data", outputs=("out",), ii=read_ii,
        latency=config.memory_latency,
    ))
    shift = graph.add(SpecStage(
        "shift_buffer", inputs=("in",), outputs=("out",),
        ii=config.shift_buffer_ii, latency=2,
    ))
    replicate = graph.add(SpecStage(
        "replicate", inputs=("in",), outputs=("u", "v", "w"), latency=1,
    ))
    advects = {
        fld: graph.add(SpecStage(
            f"advect_{fld}", inputs=("in",), outputs=("out",),
            latency=config.advect_latency,
            flops_per_cell=field_flops(field=fld),
            flops_per_cell_top=field_flops(top=True, field=fld),
        ))
        for fld in ("u", "v", "w")
    }
    write = graph.add(SpecStage(
        "write_data", inputs=("su", "sv", "sw"),
        latency=config.memory_latency,
    ))

    depth = config.stream_depth
    graph.connect(read, "out", shift, "in", depth=depth)
    graph.connect(shift, "out", replicate, "in", depth=depth)
    for fld in ("u", "v", "w"):
        graph.connect(replicate, fld, advects[fld], "in", depth=depth)
        graph.connect(advects[fld], "out", write, f"s{fld}", depth=depth)
    return graph
