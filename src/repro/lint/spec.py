"""JSON design specs: lintable descriptions of a kernel deployment.

A spec file names a kernel configuration, a target device, a kernel
count, and (optionally) an explicit dataflow-graph wiring.  It is the
linter's input format for CI: the example specs under ``examples/graphs/``
describe the paper's deployments and must lint clean, and a deliberately
broken spec must fail.  Schema::

    {
      "name": "advection-u280",            // optional, defaults to filename
      "device": "u280",                    // optional catalog alias
      "num_kernels": 6,                    // optional replica count
      "read_ii": 1,                        // optional memory-imposed II
      "kernel": {                          // optional KernelConfig
        "cells": "16M",                    //   or "grid": {"nx","ny","nz"}
        "chunk_width": 64, "stream_depth": 4, "shift_buffer_ii": 1,
        "advect_latency": 28, "memory_latency": 16,
        "partitioned": true, "word_bytes": 8
      },
      "graph": "advection"                 // derived Fig. 2 wiring (default
                                           // when "kernel" is present), or:
      "graph": {
        "stages": [{"name": "read", "outputs": ["out"], "ii": 1,
                    "latency": 16, "flops_per_cell": null}, ...],
        "streams": [{"src": "read.out", "dst": "shift.in", "depth": 4}]
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.grid import Grid
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import Stage
from repro.errors import (ConfigurationError, DataflowError, GridError,
                          LintError)
from repro.kernel.config import KernelConfig
from repro.lint.registry import LintContext

__all__ = ["SpecStage", "LintTarget", "load_spec", "context_from_spec"]

_KERNEL_KEYS = frozenset({
    "cells", "grid", "chunk_width", "stream_depth", "shift_buffer_ii",
    "advect_latency", "memory_latency", "partitioned", "word_bytes",
})
_TOP_KEYS = frozenset({
    "name", "device", "num_kernels", "read_ii", "kernel", "graph",
})


class SpecStage(Stage):
    """A structural stand-in stage declared by a spec file.

    Carries ports, timing, and optional per-cell FLOP declarations, but no
    functional behaviour — the linter analyses wiring and budgets, it
    never simulates.
    """

    def __init__(self, name: str, *, inputs: tuple[str, ...] = (),
                 outputs: tuple[str, ...] = (), ii: int = 1,
                 latency: int = 1, flops_per_cell: int | None = None,
                 flops_per_cell_top: int | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.input_ports = tuple(inputs)
        self.output_ports = tuple(outputs)
        self.flops_per_cell = flops_per_cell
        self.flops_per_cell_top = flops_per_cell_top

    def fire(self, cycle, inputs):  # pragma: no cover - never simulated
        raise NotImplementedError(
            f"SpecStage {self.name!r} is structural only"
        )


@dataclass(frozen=True)
class LintTarget:
    """One lintable subject: a name plus its assembled context."""

    name: str
    context: LintContext


def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise LintError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _int(spec: Mapping[str, Any], key: str, default: Any = None, *,
         minimum: int | None = None) -> Any:
    """``spec[key]`` as a JSON integer (``bool`` excluded).

    An absent key or ``null`` gives ``default``.
    """
    value = spec.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise LintError(f'"{key}" must be an integer, got {json.dumps(value)}')
    if minimum is not None and value < minimum:
        raise LintError(f'"{key}" must be >= {minimum}, got {value}')
    return value


def _bool(spec: Mapping[str, Any], key: str) -> bool | None:
    """``spec[key]`` as a JSON boolean; an absent key or ``null`` gives None."""
    value = spec.get(key)
    if value is not None and not isinstance(value, bool):
        raise LintError(f'"{key}" must be true or false, got {json.dumps(value)}')
    return value


def _names(spec: Mapping[str, Any], key: str) -> tuple[str, ...]:
    """``spec[key]`` as a JSON list of port names (absent: none)."""
    value = spec.get(key, [])
    if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value):
        raise LintError(
            f'"{key}" must be a list of names, got {json.dumps(value)}')
    return tuple(value)


def _build_grid(kernel_spec: Mapping[str, Any]) -> Grid:
    if "grid" in kernel_spec:
        dims = _require_mapping(kernel_spec["grid"], '"grid"')
        missing = [axis for axis in ("nx", "ny", "nz")
                   if dims.get(axis) is None]
        if missing:
            raise LintError(f'"grid" needs nx/ny/nz; missing {missing}')
        try:
            return Grid(nx=_int(dims, "nx"), ny=_int(dims, "ny"),
                        nz=_int(dims, "nz"))
        except ConfigurationError as error:
            raise LintError(f"invalid grid: {error}") from error
    if "cells" in kernel_spec:
        try:
            return Grid.from_label(str(kernel_spec["cells"]))
        except GridError as error:
            raise LintError(f'"cells": {error}') from error
    raise LintError('"kernel" spec needs either "cells" or "grid"')


def _build_config(kernel_spec: Mapping[str, Any]) -> KernelConfig:
    unknown = set(kernel_spec) - _KERNEL_KEYS
    if unknown:
        raise LintError(
            f'unknown "kernel" keys {sorted(unknown)}; '
            f"allowed: {sorted(_KERNEL_KEYS)}"
        )
    grid = _build_grid(kernel_spec)
    params = {key: _int(kernel_spec, key)
              for key in _KERNEL_KEYS - {"cells", "grid", "partitioned"}}
    params["partitioned"] = _bool(kernel_spec, "partitioned")
    try:
        return KernelConfig(grid=grid, **{
            key: value for key, value in params.items() if value is not None})
    except ConfigurationError as error:
        raise LintError(f"invalid kernel configuration: {error}") from error


def _split_endpoint(endpoint: str, what: str) -> tuple[str, str]:
    stage, sep, port = str(endpoint).rpartition(".")
    if not sep or not stage or not port:
        raise LintError(
            f'{what} endpoint {endpoint!r} must be "stage.port"'
        )
    return stage, port


def _build_graph(graph_spec: Mapping[str, Any], name: str) -> DataflowGraph:
    graph = DataflowGraph(name)
    for stage_spec in graph_spec.get("stages", ()):
        stage_spec = _require_mapping(stage_spec, "stage entry")
        if "name" not in stage_spec:
            raise LintError('every stage entry needs a "name"')
        graph.add(SpecStage(
            str(stage_spec["name"]),
            inputs=_names(stage_spec, "inputs"),
            outputs=_names(stage_spec, "outputs"),
            ii=_int(stage_spec, "ii", 1),
            latency=_int(stage_spec, "latency", 1),
            flops_per_cell=_int(stage_spec, "flops_per_cell"),
            flops_per_cell_top=_int(stage_spec, "flops_per_cell_top"),
        ))
    for stream_spec in graph_spec.get("streams", ()):
        stream_spec = _require_mapping(stream_spec, "stream entry")
        src, src_port = _split_endpoint(stream_spec.get("src", ""), "src")
        dst, dst_port = _split_endpoint(stream_spec.get("dst", ""), "dst")
        kwargs: dict[str, Any] = {}
        if stream_spec.get("depth") is not None:
            kwargs["depth"] = _int(stream_spec, "depth")
        if "name" in stream_spec:
            kwargs["name"] = str(stream_spec["name"])
        graph.connect(src, src_port, dst, dst_port, **kwargs)
    return graph


def context_from_spec(data: Mapping[str, Any], *,
                      default_name: str = "spec") -> LintTarget:
    """Assemble a :class:`LintTarget` from parsed spec JSON."""
    data = _require_mapping(data, "spec")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise LintError(
            f"unknown spec keys {sorted(unknown)}; allowed: "
            f"{sorted(_TOP_KEYS)}"
        )
    name = str(data.get("name", default_name))

    config = None
    if "kernel" in data:
        config = _build_config(_require_mapping(data["kernel"], '"kernel"'))

    device = None
    if "device" in data:
        from repro.hardware.devices import device_by_name

        try:
            device = device_by_name(str(data["device"]))
        except ConfigurationError as error:
            raise LintError(str(error)) from error
        if not hasattr(device, "capacity"):
            raise LintError(
                f"device {data['device']!r} is not an FPGA model; resource "
                f"rules need a fabric capacity"
            )

    read_ii = _int(data, "read_ii", 1, minimum=1)
    num_kernels = _int(data, "num_kernels", minimum=1)
    graph_spec = data.get("graph", "advection" if config else None)
    graph = None
    try:
        if graph_spec == "advection":
            if config is None:
                raise LintError('"graph": "advection" needs a "kernel" spec')
            from repro.kernel.builder import build_structural_graph

            graph = build_structural_graph(config, name=name, read_ii=read_ii)
        elif graph_spec is not None:
            graph = _build_graph(_require_mapping(graph_spec, '"graph"'), name)
    except (ConfigurationError, DataflowError) as error:
        raise LintError(f"invalid graph: {error}") from error

    return LintTarget(name=name, context=LintContext(
        graph=graph,
        config=config,
        device=device,
        num_kernels=num_kernels,
        read_ii=read_ii,
    ))


def load_spec(path: str | Path) -> LintTarget:
    """Load and assemble one spec file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as error:
        raise LintError(f"cannot read spec {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise LintError(f"spec {path} is not valid JSON: {error}") from error
    return context_from_spec(data, default_name=path.stem)
