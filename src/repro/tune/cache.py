"""Persistent JSON evaluation cache.

Analytic evaluations are cheap but not free (each one lints the point
and simulates the host schedule), and repeated tuning runs — CI smoke
jobs, strategy comparisons, budget sweeps — revisit the same points.
The cache keys each evaluation by the backend, device, grid, and
canonical point key, so a cache file is safely shared between
strategies but never between problems — and a cached U280 evaluation
can never be served for a Versal query, even when point keys collide.

The on-disk format is a single sorted-key JSON object; loading tolerates
a missing file (first run), transparently migrates the pre-backend
schema 2 layout (scopes gain the default backend's prefix), and raises
:class:`~repro.errors.TuneError` on any other schema rather than
silently mixing incompatible cost models.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable

from repro.errors import TuneError
from repro.tune.cost import Evaluation
from repro.tune.space import TunePoint

__all__ = ["EvaluationCache"]

#: Bump on any change to Evaluation fields or cost-model semantics.
#: Schema 3 prefixes every scope with the backend id.
SCHEMA_VERSION = 3

#: The schema written before backends existed; its scopes are all
#: implicitly the default backend's.
_LEGACY_SCHEMA = 2

#: Backend id stamped onto migrated legacy scopes.
_DEFAULT_BACKEND = "fpga_shiftbuffer"


def _evaluation_from_dict(data: dict,
                          point_factory: Callable[[dict], Any]) -> Evaluation:
    point = point_factory(data["point"])
    return Evaluation(
        point=point,
        feasible=bool(data["feasible"]),
        reject_codes=tuple(data.get("reject_codes", ())),
        reject_reason=str(data.get("reject_reason", "")),
        kernel_gflops=float(data.get("kernel_gflops", 0.0)),
        end_to_end_gflops=float(data.get("end_to_end_gflops", 0.0)),
        gflops_per_watt=float(data.get("gflops_per_watt", 0.0)),
        kernel_seconds=float(data.get("kernel_seconds", 0.0)),
        runtime_seconds=float(data.get("runtime_seconds", 0.0)),
        transfer_seconds=float(data.get("transfer_seconds", 0.0)),
        watts=float(data.get("watts", 0.0)),
        utilisation=float(data.get("utilisation", 0.0)),
        utilisation_by_axis=dict(data.get("utilisation_by_axis", {})),
        clock_mhz=float(data.get("clock_mhz", 0.0)),
        memory_bound=bool(data.get("memory_bound", False)),
        analytic_cycles=int(data.get("analytic_cycles", 0)),
    )


def _migrate_scopes(data: dict) -> dict[str, dict]:
    """Scopes of a cache payload, migrated to the schema-3 layout."""
    scopes = dict(data.get("scopes", {}))
    if data.get("schema") == _LEGACY_SCHEMA:
        return {f"{_DEFAULT_BACKEND}/{scope}": entries
                for scope, entries in scopes.items()}
    return scopes


class EvaluationCache:
    """Keyed evaluation store, optionally persisted to a JSON file."""

    def __init__(self, path: str | pathlib.Path | None = None, *,
                 backend: str = _DEFAULT_BACKEND,
                 device: str = "", grid_key: str = "",
                 point_factory: Callable[[dict], Any] | None = None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.scope = f"{backend}/{device}/{grid_key}"
        self._point_factory = (point_factory if point_factory is not None
                               else lambda data: TunePoint(**data))
        self._entries: dict[str, Evaluation] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- persistence ---------------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        try:
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise TuneError(f"unreadable tune cache {self.path}: {error}"
                            ) from error
        if data.get("schema") not in (SCHEMA_VERSION, _LEGACY_SCHEMA):
            raise TuneError(
                f"tune cache {self.path} has schema "
                f"{data.get('schema')!r}, expected {SCHEMA_VERSION}; "
                f"delete it to re-evaluate"
            )
        for scope, entries in _migrate_scopes(data).items():
            if scope != self.scope:
                continue
            for key, entry in entries.items():
                self._entries[key] = _evaluation_from_dict(
                    entry, self._point_factory)

    def save(self) -> None:
        """Write back, merging with other scopes already in the file.

        A legacy schema-2 file is migrated wholesale: its other scopes
        are re-keyed under the default backend and the file is rewritten
        as schema 3.
        """
        if self.path is None:
            return
        scopes: dict[str, dict] = {}
        if self.path.exists():
            try:
                existing = json.loads(self.path.read_text())
                if existing.get("schema") in (SCHEMA_VERSION, _LEGACY_SCHEMA):
                    scopes = _migrate_scopes(existing)
            except (OSError, json.JSONDecodeError):
                pass  # overwrite a corrupt cache rather than crash
        scopes[self.scope] = {
            key: evaluation.to_dict()
            for key, evaluation in sorted(self._entries.items())
        }
        payload = {"schema": SCHEMA_VERSION, "scopes": scopes}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, point: Any) -> bool:
        return point.key() in self._entries

    def get(self, point: Any) -> Evaluation | None:
        found = self._entries.get(point.key())
        if found is not None:
            self.hits += 1
        return found

    def put(self, evaluation: Evaluation) -> None:
        self.misses += 1
        self._entries[evaluation.point.key()] = evaluation
