"""Pluggable hardware backends.

``repro.backend`` is the seam between "what the toolchain does" (lint,
analyze, tune, simulate, serve, scenarios) and "what machine it targets".
Each registered :class:`~repro.backend.base.Backend` supplies a device
catalog, a tuner parameter space over the shared
:class:`~repro.backend.space.AxisSpace` algebra, a lint-gated cost
model, structural-graph lowering, a lint entry point, a roofline, and a
deterministic scenario-pricing policy.

Built-ins:

``fpga_shiftbuffer``
    The paper's U280 / Stratix 10 shift-buffer dataflow path, wrapped
    bit-identically (the default backend everywhere).
``versal_aie``
    The Versal AI-engine array of the paper's §V outlook and Brown's
    follow-on paper: a VLIW-vector / stream-interconnect machine with
    its own ``BK`` lint family and tuner axes.

This module also holds the paper's §V outlook as arithmetic:

    "Taking the Xilinx Versal as an example, there will be up to 400 AI
    engines which act as vector units clocked at around 1 GHz, each
    capable of performing eight single precision floating point
    operations per cycle.  This could considerably accelerate the
    arithmetic component of our advection kernel, and keeping the
    engines fed with data will be the key, exploiting the reconfigurable
    fabric of the ACAP for our shift buffer design."

:class:`AIEngineProjection` turns that paragraph into the compute
ceiling of an AI-engine array on the PW kernel, the feed bandwidth the
shift-buffer fabric must sustain to keep it busy, and the resulting
roofline against realisable on-chip bandwidth.  The ``versal_aie``
backend folds it into its roofline as a consistency cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import LazyExports, constants
from repro.errors import BackendError, ConfigurationError

__all__ = [
    "AIEngineProjection",
    "AxisSpace",
    "Backend",
    "BackendError",
    "DEFAULT_BACKEND",
    "STRATIX10_NX_PROJECTION",
    "VERSAL_VC1902",
    "backend_names",
    "get_backend",
    "register_backend",
]

_EXPORTS = LazyExports(__name__, {
    "repro.backend.base": ("DEFAULT_BACKEND", "Backend", "backend_names",
                           "get_backend", "register_backend"),
    "repro.backend.space": ("AxisSpace",),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())


@dataclass(frozen=True)
class AIEngineProjection:
    """A vector-engine array running the PW advection arithmetic.

    Parameters
    ----------
    name:
        Device label.
    engines:
        Vector processors available.
    clock_ghz:
        Engine clock.
    flops_per_engine_cycle:
        Single-precision operations per engine per cycle (Versal: 8).
    fabric_feed_bandwidth:
        Bytes/second the reconfigurable fabric (hosting the shift
        buffers) can stream into the engine array.
    """

    name: str
    engines: int
    clock_ghz: float
    flops_per_engine_cycle: int
    fabric_feed_bandwidth: float

    def __post_init__(self) -> None:
        if self.engines < 1:
            raise ConfigurationError("engines must be >= 1")
        if self.clock_ghz <= 0 or self.fabric_feed_bandwidth <= 0:
            raise ConfigurationError("rates must be positive")
        if self.flops_per_engine_cycle < 1:
            raise ConfigurationError("flops_per_engine_cycle must be >= 1")

    @property
    def compute_peak_gflops(self) -> float:
        """Raw single-precision peak of the engine array."""
        return self.engines * self.clock_ghz * self.flops_per_engine_cycle

    def cells_per_second_compute(self,
                                 column_height: int = constants.DEFAULT_COLUMN_HEIGHT
                                 ) -> float:
        """Grid cells/s if arithmetic were the only limit."""
        ops = constants.average_ops_per_cycle(column_height)
        return self.compute_peak_gflops * 1e9 / ops

    def cells_per_second_feed(self, *, bytes_per_cell: float = 3 * 4) -> float:
        """Grid cells/s the fabric can feed (3 float32 values per cell)."""
        if bytes_per_cell <= 0:
            raise ConfigurationError("bytes_per_cell must be positive")
        return self.fabric_feed_bandwidth / bytes_per_cell

    def attainable_gflops(self,
                          column_height: int = constants.DEFAULT_COLUMN_HEIGHT,
                          *, bytes_per_cell: float = 3 * 4) -> float:
        """Roofline: min(compute ceiling, feed ceiling) on the PW kernel."""
        ops = constants.average_ops_per_cycle(column_height)
        cells = min(self.cells_per_second_compute(column_height),
                    self.cells_per_second_feed(bytes_per_cell=bytes_per_cell))
        return cells * ops / 1e9

    @property
    def feed_bound(self) -> bool:
        """True when keeping the engines fed is the limit (§V's prediction)."""
        return self.cells_per_second_feed() < self.cells_per_second_compute()

    def speedup_over(self, baseline_gflops: float) -> float:
        """Attainable speedup over a measured baseline (e.g. Fig. 6)."""
        if baseline_gflops <= 0:
            raise ConfigurationError("baseline must be positive")
        return self.attainable_gflops() / baseline_gflops


#: The §V Versal example: 400 engines, ~1 GHz, 8 SP FLOPs/cycle; fabric
#: feed estimated at a few hundred GB/s of distributed on-chip streams.
VERSAL_VC1902 = AIEngineProjection(
    name="Xilinx Versal VC1902 (projection)",
    engines=400,
    clock_ghz=1.0,
    flops_per_engine_cycle=8,
    fabric_feed_bandwidth=600e9,
)

#: The Intel counterpart the paper names: Stratix 10 NX AI tensor blocks.
STRATIX10_NX_PROJECTION = AIEngineProjection(
    name="Intel Stratix 10 NX (projection)",
    engines=3960,          # AI tensor blocks
    clock_ghz=0.6,
    flops_per_engine_cycle=2,  # per block, dense FP16-ish mode on this kernel
    fabric_feed_bandwidth=500e9,
)
