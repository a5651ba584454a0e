"""The general-purpose 3D shift buffer of the paper's kernel redesign.

Section III and Fig. 3 of the paper describe the buffer's three data
structures, reproduced here exactly:

* a ``3 x Y x Z`` slab holding the last three X-planes of the input stream,
* per slab slice, a ``3 x Z`` rectangular line buffer sliding in Y, and
* per slab slice, a ``3 x 3`` register window shifting in Z.

Feeding one value per cycle, the primed buffer emits a complete 27-point
stencil per cycle — the property that lets the advection stages run at
initiation interval 1.  :mod:`repro.shiftbuffer.ports` checks the paper's
"never more than two memory accesses per cycle per partitioned array"
claim, and :mod:`repro.shiftbuffer.chunking` implements the Y-dimension
chunking with one-cell halo overlap from Fig. 4.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "ShiftBuffer3D",
    "StencilWindow",
    "WindowRun",
    "MemoryPortTracker",
    "ChunkPlan",
    "plan_chunks",
]

_EXPORTS = LazyExports(__name__, {
    "repro.shiftbuffer.buffer3d": ("ShiftBuffer3D",),
    "repro.shiftbuffer.chunking": ("ChunkPlan", "plan_chunks"),
    "repro.shiftbuffer.ports": ("MemoryPortTracker",),
    "repro.shiftbuffer.window": ("StencilWindow", "WindowRun"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
