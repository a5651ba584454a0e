"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from simulation-time faults.

Each class also carries the exit code the command line returns for it:
2 for a malformed request (an unknown name, a count below 1, an
unreadable spec), 1 for a well-formed run that fails.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GridError",
    "DataflowError",
    "StreamError",
    "GraphError",
    "ShiftBufferError",
    "PortConflictError",
    "ChunkingError",
    "ResourceError",
    "CapacityError",
    "ScheduleError",
    "CalibrationError",
    "ExperimentError",
    "LintError",
    "AnalyzeError",
    "FaultError",
    "TransferError",
    "RetryExhaustedError",
    "WatchdogTimeout",
    "ReplicaLostError",
    "CheckpointError",
    "TuneError",
    "BackendError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: Exit status of a CLI command that ends in this error; the
    #: input-error classes below set 2.
    exit_code: int = 1


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""

    exit_code = 2


class GridError(ConfigurationError):
    """A grid geometry is malformed (non-positive sizes, halo too large...)."""


class DataflowError(ReproError):
    """Base class for dataflow-machine simulation errors."""


class StreamError(DataflowError):
    """Illegal stream operation (pop from empty, push to full FIFO...)."""


class GraphError(DataflowError):
    """The dataflow graph is malformed (unconnected port, cycle, ...)."""


class ShiftBufferError(DataflowError):
    """Shift-buffer misuse (feeding out of order, reading before primed).

    A :class:`DataflowError` subclass: the shift buffer is a dataflow
    stage's internal machine, and callers of the engine layer catch its
    failures (e.g. a mis-shaped block fed to ``ShiftBuffer3D.feed_bulk``)
    under the dataflow family.
    """


class PortConflictError(ShiftBufferError):
    """More memory-port accesses in one cycle than the RAM provides."""


class ChunkingError(ReproError):
    """Invalid chunk plan (chunk narrower than the stencil, bad overlap)."""

    exit_code = 2


class ResourceError(ReproError):
    """A design does not fit on the targeted device resources."""


class CapacityError(ResourceError):
    """A buffer allocation exceeds a memory space's capacity."""


class ScheduleError(ReproError):
    """The host runtime schedule is inconsistent (dependency cycle, ...)."""


class CalibrationError(ReproError):
    """A calibration table lookup failed or produced nonsense."""


class ExperimentError(ReproError):
    """An experiment was asked to run with unsupported parameters."""

    exit_code = 2


class LintError(ReproError):
    """A lint pass failed: error diagnostics, or an unreadable design spec."""

    exit_code = 2


class AnalyzeError(ReproError):
    """Static dataflow analysis failed (malformed graph, diverging model)."""


class FaultError(ReproError):
    """Base class for runtime faults (injected or real) and their recovery.

    Everything the resilience layer raises derives from this class, so a
    host loop can catch the whole family while still telling a failed
    transfer from a lost replica.  The chaos invariant is stated in these
    terms: a faulted run either completes bit-identical to the fault-free
    golden output or raises a typed :class:`ReproError` within its
    watchdog budget.
    """


class TransferError(FaultError):
    """A PCIe transfer failed (DMA error, dropped completion, bad CRC)."""


class RetryExhaustedError(FaultError):
    """An operation kept failing until its retry budget ran out."""


class WatchdogTimeout(FaultError):
    """A watchdog budget (cycles or seconds) elapsed without completion."""


class ReplicaLostError(FaultError):
    """A kernel replica (or rank) died and no survivor can take its work."""


class CheckpointError(FaultError):
    """A checkpoint could not be taken, restored, or verified."""


class TuneError(ReproError):
    """Design-space exploration failed (bad space, strategy, or cache)."""

    exit_code = 2


class BackendError(ReproError):
    """A hardware backend is unknown, misconfigured, or cannot serve a
    request (e.g. no feasible deployment exists for a scenario)."""

    exit_code = 2
