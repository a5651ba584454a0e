"""MONC-style horizontal domain decomposition with halo exchange.

MONC is "a highly scalable Met Office NERC Cloud model" [1]: the
horizontal domain is decomposed across MPI ranks, each rank computes its
own columns, and depth-1 halo swaps run each timestep before advection.
This subpackage reproduces that substrate in-process:

* :mod:`repro.distributed.topology` — a periodic 2-D processor grid and
  the per-rank subdomain geometry;
* :mod:`repro.distributed.comm` — an in-process communicator with the
  mpi4py-style sendrecv/halo-exchange surface plus a latency/bandwidth
  cost model;
* :mod:`repro.distributed.driver` — a distributed advection driver whose
  result is bit-identical to the single-domain reference, with per-step
  time estimates for compute and communication.

Running real MPI is out of scope (and unnecessary for correctness): the
communicator executes rank-by-rank in one process, which keeps every test
deterministic while exercising exactly the halo logic a distributed MONC
needs.
"""

from typing import Any

from repro import LazyExports

__all__ = [
    "ProcessGrid",
    "RankDomain",
    "LocalCluster",
    "CommCostModel",
    "DistributedAdvection",
    "DistributedStepReport",
]

_EXPORTS = LazyExports(__name__, {
    "repro.distributed.comm": ("CommCostModel", "LocalCluster"),
    "repro.distributed.driver": ("DistributedAdvection",
                                 "DistributedStepReport"),
    "repro.distributed.topology": ("ProcessGrid", "RankDomain"),
})


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names(globals())
