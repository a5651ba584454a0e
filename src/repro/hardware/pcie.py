"""Host <-> accelerator PCIe transfer model.

Section IV of the paper shows two very different transfer regimes:

* the naive path — enqueue a transfer, synchronise, repeat — whose
  effective bandwidth is dominated by runtime/synchronisation overheads
  (measured: transfers take ~2x longer on the U280 than the Stratix 10);
* the bulk-registered, event-chained path used for overlapping, which
  approaches the link's streaming capability.

:class:`PCIeLink` models both with separate effective bandwidths plus a
fixed per-transfer latency, and a duplex flag saying whether host-to-device
and device-to-host transfers can proceed concurrently (they can on every
device here; the *schedules* decide whether they actually do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["PCIeLink"]


@dataclass(frozen=True)
class PCIeLink:
    """Effective PCIe characteristics of one accelerator board.

    Parameters
    ----------
    streamed_bandwidth:
        Bytes/s for bulk-registered (overlap-capable) transfers.
    synchronous_bandwidth:
        Bytes/s for individually synchronised transfers (the Fig. 5 path).
    latency:
        Fixed seconds per transfer (enqueue + DMA setup).
    duplex:
        Whether H2D and D2H directions move data concurrently.
    """

    streamed_bandwidth: float
    synchronous_bandwidth: float
    latency: float = 20e-6
    duplex: bool = True

    def __post_init__(self) -> None:
        if self.streamed_bandwidth <= 0 or self.synchronous_bandwidth <= 0:
            raise ConfigurationError("PCIe bandwidths must be positive")
        if self.synchronous_bandwidth > self.streamed_bandwidth:
            raise ConfigurationError(
                "synchronous bandwidth cannot exceed streamed bandwidth"
            )
        if self.latency < 0:
            raise ConfigurationError("PCIe latency must be >= 0")

    def transfer_time(self, nbytes: float, *, streamed: bool) -> float:
        """Seconds for one transfer of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        bandwidth = (self.streamed_bandwidth if streamed
                     else self.synchronous_bandwidth)
        return self.latency + nbytes / bandwidth
