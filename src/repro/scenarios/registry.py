"""The scenario registry: named workloads plus CLI-coverage accounting.

The registry is the single source of truth for what the reproduction
can run beyond the paper's one advection workload: every entry binds a
kernel to a grid family, boundary variant and batch size
(:class:`~repro.scenarios.base.Scenario`), and every entry is held to
the same bar — lint-clean, statically proved deadlock-free, and
bit-identical across execution modes (the conformance harness runs all
of it, per scenario, in CI).

:func:`unregistered_cli_kernels` closes the loop in the other
direction: it scans the CLI for kernel execution paths and reports any
whose kernel *kind* no registered scenario covers, so a new kernel
cannot be wired into ``repro`` without joining the suite.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigurationError
from repro.scenarios.base import GridFamily, Scenario
from repro.scenarios.kernels import (
    AdvectionKernel,
    BuoyancyKernel,
    DiffusionKernel,
)

__all__ = [
    "register",
    "get",
    "names",
    "scenarios",
    "unregistered_cli_kernels",
    "CLI_KERNEL_MODULES",
]

_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add a scenario to the registry (error on duplicate names)."""
    if not replace and scenario.name in _REGISTRY:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get(name: str) -> Scenario:
    """Look one scenario up by name, with a helpful error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(names())}"
        ) from None


def names() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def scenarios() -> Iterator[Scenario]:
    """All registered scenarios, in name order."""
    for name in names():
        yield _REGISTRY[name]


# -- the built-in suite --------------------------------------------------------

#: Grid families: the column height is what the derived ops/cycle model
#: consumes, so the suite deliberately spans cubic, tall and flat.
CUBIC = GridFamily("cubic", default=(16, 16, 16), small=(5, 6, 5),
                   bounds=((3, 10), (3, 10), (3, 10)))
TALL_COLUMN = GridFamily("tall-column", default=(6, 8, 96),
                         small=(3, 4, 12), bounds=((3, 6), (3, 6), (8, 24)))
FLAT = GridFamily("flat", default=(24, 12, 8), small=(6, 5, 4),
                  bounds=((4, 12), (4, 12), (3, 8)))
COMPACT = GridFamily("compact", default=(8, 9, 10), small=(4, 5, 6),
                     bounds=((3, 9), (3, 9), (3, 12)))

register(Scenario(
    name="pw-advection",
    title="PW advection, cubic grid",
    description="The paper's workload: the Piacsek-Williams advection "
                "kernel on a cubic periodic grid, 63/55-op model.",
    kernel=AdvectionKernel(),
    grids=CUBIC,
    wind="random",
    tags=("paper", "advection"),
))

register(Scenario(
    name="pw-advection-tall",
    title="PW advection, tall columns",
    description="Advection on deep atmospheric columns (nz = 96): the "
                "derived ops/cycle rises toward the 63-op interior "
                "asymptote as the one-sided column top amortises.",
    kernel=AdvectionKernel(),
    grids=TALL_COLUMN,
    wind="gravity-current",
    tags=("advection", "grid-family"),
))

register(Scenario(
    name="pw-advection-open",
    title="PW advection, open boundaries",
    description="Advection with open (zero-halo) lateral boundaries on "
                "a flat grid — the boundary-condition variant of the "
                "same kernel.",
    kernel=AdvectionKernel(),
    grids=FLAT,
    boundary="open",
    wind="shear-layer",
    tags=("advection", "boundary"),
))

register(Scenario(
    name="diffusion",
    title="7-point diffusion",
    description="Constant-viscosity 7-point diffusion on the paper's "
                "general-purpose shift buffer (45-op model), run by the "
                "generic stencil machine.",
    kernel=DiffusionKernel(nu=0.8),
    grids=COMPACT,
    wind="thermal-bubble",
    tags=("diffusion", "general-buffer"),
))

register(Scenario(
    name="buoyancy",
    title="Buoyancy smoothing",
    description="Vertical Shapiro 1-2-1 buoyancy-term smoothing — the "
                "cheapest stencil in the suite (15/9-op model), probing "
                "the low end of the operational-intensity range.",
    kernel=BuoyancyKernel(),
    grids=COMPACT,
    wind="shear-layer",
    tags=("buoyancy", "general-buffer"),
))

register(Scenario(
    name="diffusion-batch",
    title="7-point diffusion, 3-field batch",
    description="Three independent field sets streamed back to back "
                "through one diffusion kernel — the multi-field batch "
                "variant.",
    kernel=DiffusionKernel(nu=1.0),
    grids=GridFamily("batch", default=(5, 6, 7), small=(4, 4, 5),
                     bounds=((3, 8), (3, 8), (3, 8))),
    wind="random",
    batch=3,
    tags=("diffusion", "batch"),
))


# -- CLI kernel coverage -------------------------------------------------------

#: Kernel-bearing modules the CLI may import -> the kernel kind a
#: registered scenario must cover.  Modules that are pure plumbing
#: (graph building, config) are deliberately absent.
CLI_KERNEL_MODULES: dict[str, str] = {
    "repro.kernel.simulate": "advection",
    "repro.kernel.functional": "advection",
    "repro.kernel.diffusion": "diffusion",
    "repro.kernel.buoyancy": "buoyancy",
    "repro.kernel.generic": "stencil",
}

#: Kinds the generic stencil machine covers when any non-advection
#: scenario is registered on it.
_GENERIC_KINDS = ("diffusion", "buoyancy")


def unregistered_cli_kernels() -> tuple[str, ...]:
    """Kernel kinds reachable from the CLI with no registered scenario.

    Scans the source of :mod:`repro.cli` (and this package's CLI glue)
    for references to kernel-bearing modules, maps each to its kernel
    kind, and subtracts the kinds the registry covers.  Empty means
    every kernel a user can run from ``repro`` is in the suite; CI
    fails otherwise.
    """
    import inspect

    import repro.cli as cli_module
    import repro.scenarios.kernels as kernels_module

    source = inspect.getsource(cli_module) \
        + inspect.getsource(kernels_module)
    reachable = {
        kind for module, kind in CLI_KERNEL_MODULES.items()
        if module.rsplit(".", 1)[-1] in source and kind != "stencil"
    }
    if "repro.kernel.generic".rsplit(".", 1)[-1] in source:
        reachable.update(_GENERIC_KINDS)
    covered = {scenario.kernel.kind for scenario in scenarios()}
    return tuple(sorted(reachable - covered))
