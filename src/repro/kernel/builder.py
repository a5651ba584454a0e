"""Wires the Fig. 2 dataflow graph for one chunk pass of the kernel."""

from __future__ import annotations

import numpy as np

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.errors import ConfigurationError
from repro.kernel.config import REPLICATE_LATENCY, SHIFT_LATENCY, KernelConfig
from repro.kernel.stages import (
    AdvectStage,
    MemoryArbiter,
    ReadDataStage,
    ReplicateStage,
    ShiftBufferStage,
    WriteDataStage,
)
from repro.shiftbuffer.chunking import Chunk, plan_chunks
from repro.shiftbuffer.ports import MemoryPortTracker

__all__ = [
    "REPLICATE_LATENCY",
    "SHIFT_LATENCY",
    "build_advection_graph",
    "build_chunk_graph",
    "build_structural_graph",
]

#: The smallest grid every kernel configuration accepts: ``nz >= 3``
#: for the vertical stencil, and two Y cells for one whole chunk.
_STRUCTURAL_GRID = Grid(1, 2, 3)


def build_advection_graph(config: KernelConfig, fields: FieldSet,
                          chunk: Chunk, coeffs: AdvectionCoefficients,
                          out: SourceSet, *, read_ii: int = 1,
                          tracker: MemoryPortTracker | None = None,
                          x_offset: int = 0, name_prefix: str = "",
                          arbiter: MemoryArbiter | None = None,
                          ) -> DataflowGraph:
    """Build the dataflow graph of Fig. 2 for one chunk.

    Parameters
    ----------
    config:
        Kernel design parameters (latencies, FIFO depths, II).
    fields:
        Input wind fields (halo coordinates).
    chunk:
        The Y chunk to process.
    coeffs:
        Advection coefficients.
    out:
        Source set the write stage scatters results into (interior
        coordinates of the full grid).
    read_ii:
        Initiation interval of the read stage; >1 models a
        bandwidth-limited external memory.
    tracker:
        Optional port tracker shared with the caller for port-pressure
        assertions.
    x_offset:
        Global X offset of this (sub)grid's results — non-zero when the
        kernel is one instance of a multi-kernel decomposition.
    name_prefix:
        Prefix for stage names (a run of several kernel replicas merges
        their stages into one graph and needs unique names).
    arbiter:
        Arbiter of an external memory shared with other replicas; the
        read stage must win one of its grants per cell.
    """
    nz = config.grid.nz
    graph = DataflowGraph(f"{name_prefix}advection[chunk={chunk.index}]")

    # The chunk's field blocks in streaming layout, halo-extended in X:
    # the read stage streams their cell positions, the shift stage holds
    # them.
    blocks = tuple(
        np.ascontiguousarray(
            arr[:, chunk.read_start:chunk.read_stop, :], dtype=float)
        for arr in (fields.u, fields.v, fields.w)
    )

    read = graph.add(ReadDataStage(
        f"{name_prefix}read_data", cells=blocks[0].size, ii=read_ii,
        latency=config.memory_latency, arbiter=arbiter,
    ))
    shift = graph.add(ShiftBufferStage(
        f"{name_prefix}shift_buffer", blocks, ii=config.shift_buffer_ii,
        latency=SHIFT_LATENCY, partitioned=config.partitioned,
        tracker=tracker,
    ))
    replicate = graph.add(ReplicateStage(f"{name_prefix}replicate",
                                         latency=REPLICATE_LATENCY))
    advects = {
        field: graph.add(AdvectStage(
            f"{name_prefix}advect_{field}", field, coeffs, nz,
            latency=config.advect_latency,
        ))
        for field in ("u", "v", "w")
    }
    write = graph.add(WriteDataStage(
        f"{name_prefix}write_data", {"su": out.su, "sv": out.sv, "sw": out.sw},
        x_offset=x_offset, y_offset=chunk.write_start - 1,
        latency=config.memory_latency,
    ))

    depth = config.stream_depth
    graph.connect(read, "out", shift, "in", depth=depth)
    graph.connect(shift, "out", replicate, "in", depth=depth)
    for field in ("u", "v", "w"):
        graph.connect(replicate, field, advects[field], "in", depth=depth)
        graph.connect(advects[field], "out", write, f"s{field}", depth=depth)
    return graph


def build_chunk_graph(config: KernelConfig, *,
                      read_ii: int = 1) -> DataflowGraph:
    """The graph :func:`build_advection_graph` wires for ``config``'s
    grid streamed as one chunk, over zero fields.

    No stage's control reads a field value, so this is the machine a
    chunk of that geometry runs, with the data left out: the static
    analyzer proves it (:func:`repro.analyze.static_kernel_cycles`).
    """
    if read_ii < 1:
        raise ConfigurationError(f"read_ii must be >= 1, got {read_ii}")
    grid = config.grid
    (chunk,) = plan_chunks(grid.ny, max(2, grid.ny)).chunks
    return build_advection_graph(
        config, FieldSet.zeros(grid), chunk,
        AdvectionCoefficients.uniform(grid), SourceSet.zeros(grid),
        read_ii=read_ii)


def build_structural_graph(config: KernelConfig, *, name: str = "advection",
                           read_ii: int = 1) -> DataflowGraph:
    """The graph :func:`build_advection_graph` wires for ``config``.

    Stage names, ports, IIs, latencies, stream depths and the advect
    stages' FLOP declarations depend on the configuration and
    ``read_ii`` alone, never on the grid or the field values, so the
    graph is wired as one chunk over zero fields on the smallest grid a
    configuration accepts (:func:`build_chunk_graph`), and renamed
    ``name``.  Its shift buffer is 3 x 4 x 3, so every emitting feed is
    a column top and every burst the kernel makes shows.  Lint, the
    static analyzer and the tuner read it; nothing runs it.
    """
    graph = build_chunk_graph(config.for_grid(_STRUCTURAL_GRID),
                              read_ii=read_ii)
    graph.name = name
    return graph
