"""Benchmark records for the simulator's own performance.

The cycle-accurate engine is the instrument every reproduction number is
read from, so its wall-clock speed is a first-class artefact: batched
exact execution (``DataflowEngine(batched=True)``) exists precisely to
push cycle-accurate simulation to paper-scale grids.  This module defines
the on-disk record format (``benchmarks/BENCH_dataflow.json``) the perf
harness writes, so a later change that silently forfeits the speedup is
caught by comparing records.

Records capture wall time *and* the simulated work (cycles, cells), so
derived rates stay comparable across machines running at different
absolute speeds — a regression gate should compare *speedups* (batched
over forced-scalar on the same host), which the hardware scales out of.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError

__all__ = ["BenchRecord", "BenchSuite", "load_suite", "speedup"]

#: Format version of the JSON files; bump on incompatible change.
#: v2: the dataflow suite's baseline became the forced-scalar exact run
#: and the single ``speedup`` context key split into ``speedup_fast``
#: and ``speedup_batched_exact``.
#: v3: the engine's fast mode was retired: no fast record and no
#: ``speedup_fast`` key.
SCHEMA_VERSION = 3


@dataclass
class BenchRecord:
    """One timed simulation run."""

    name: str
    wall_seconds: float
    cycles: int
    cells: int = 0
    mode: str = "exact"
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.wall_seconds <= 0:
            raise ConfigurationError(
                f"record {self.name!r}: wall_seconds must be positive, "
                f"got {self.wall_seconds}"
            )

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall second — the engine's native rate."""
        return self.cycles / self.wall_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cycles": self.cycles,
            "cells": self.cells,
            "mode": self.mode,
            "cycles_per_second": round(self.cycles_per_second, 1),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        return cls(
            name=str(data["name"]),
            wall_seconds=float(data["wall_seconds"]),
            cycles=int(data["cycles"]),
            cells=int(data.get("cells", 0)),
            mode=str(data.get("mode", "exact")),
            extra=dict(data.get("extra", {})),
        )


def speedup(baseline: BenchRecord, candidate: BenchRecord) -> float:
    """Wall-time ratio baseline/candidate for the same simulated work.

    Both records must describe the same machine run (equal cycle counts);
    comparing different workloads as a "speedup" is a category error and
    raises.
    """
    if baseline.cycles != candidate.cycles:
        raise ConfigurationError(
            f"cannot compare {baseline.name!r} ({baseline.cycles} cycles) "
            f"with {candidate.name!r} ({candidate.cycles} cycles): not the "
            f"same simulated work"
        )
    for record in (baseline, candidate):
        # Records validate on construction, but they are mutable and may
        # arrive hand-built; a zero/negative wall time would make the
        # ratio infinite or sign-flipped rather than fail loudly.
        if record.wall_seconds <= 0:
            raise ValueError(
                f"record {record.name!r}: wall_seconds must be positive "
                f"to form a speedup, got {record.wall_seconds}"
            )
    return baseline.wall_seconds / candidate.wall_seconds


@dataclass
class BenchSuite:
    """A set of records plus the context they were taken in."""

    records: list[BenchRecord] = field(default_factory=list)
    context: dict[str, Any] = field(default_factory=dict)

    def add(self, record: BenchRecord) -> None:
        self.records.append(record)

    def find(self, name: str) -> BenchRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise ConfigurationError(f"no benchmark record named {name!r}")

    def to_dict(self) -> dict[str, Any]:
        """The on-disk payload (schema + context + records)."""
        return {
            "schema": SCHEMA_VERSION,
            "context": dict(self.context),
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchSuite":
        if data.get("schema") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported benchmark schema {data.get('schema')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            records=[BenchRecord.from_dict(r)
                     for r in data.get("records", ())],
            context=dict(data.get("context", {})),
        )

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def load_suite(path: str | pathlib.Path) -> BenchSuite:
    data = json.loads(pathlib.Path(path).read_text())
    try:
        return BenchSuite.from_dict(data)
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from error


def render_table(records: Iterable[BenchRecord]) -> str:
    """Fixed-width text table of a record set (for benchmark logs)."""
    rows = [("name", "mode", "cycles", "wall [s]", "Mcycles/s")]
    for r in records:
        rows.append((r.name, r.mode, str(r.cycles),
                     f"{r.wall_seconds:.3f}",
                     f"{r.cycles_per_second / 1e6:.3f}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
