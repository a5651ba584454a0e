"""Deterministic fault injection and the resilience machinery around it.

The package has three layers:

* :mod:`repro.faults.plan` — the injection plane: a seeded
  :class:`~repro.faults.plan.FaultPlan` of declarative
  :class:`~repro.faults.plan.FaultSpec` entries that runtime layers
  consult at well-defined opportunities (one per transfer attempt, FIFO
  word, engine run, replica chunk, rank compute).  Identical seeds
  reproduce identical fault traces.
* :mod:`repro.faults.retry` — :class:`~repro.faults.retry.RetryPolicy`,
  the budget-capped exponential-backoff policy shared by every recovery
  path (transfer retries, chunk restarts, rank respawns).
* :mod:`repro.faults.chaos` — the chaos harness behind ``repro chaos``:
  a seeded scenario matrix asserting the invariant that every faulted
  run either completes bit-identical to the fault-free golden output or
  raises a typed :class:`~repro.errors.ReproError` within its watchdog
  budget.  Imported explicitly (``from repro.faults.chaos import ...``)
  so that importing the injection plane never drags in the kernel stack.

See ``docs/resilience.md`` for the fault model and recovery semantics.
"""

from typing import Any

from repro import LazyExports

__all__ = ["FaultSpec", "FaultPlan", "FaultEvent", "RetryPolicy"]

_EXPORTS = LazyExports(__name__, {
    "repro.faults.plan": ("FaultEvent", "FaultPlan", "FaultSpec"),
    "repro.faults.retry": ("RetryPolicy",),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
