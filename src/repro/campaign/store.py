"""Persistent on-disk result store.

Each result is one JSON file under the store root, named by the job's
content key, so re-running a figure suite only simulates cells whose
configuration changed.  Files are stamped with a schema version and written
atomically (temp file + ``os.replace``); loads are corruption-tolerant —
a missing, truncated, unparseable or version-mismatched file simply reads
as a cache miss and the cell is re-simulated.

The codec round-trips the whole :class:`~repro.stats.result.SimResult`
dataclass tree bit-exactly (JSON preserves ints and ``repr``-round-trips
floats), so a loaded result compares equal to the freshly simulated one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import tempfile
from typing import Any

from repro.core.policies import StorePrefetchEngineStats
from repro.core.spb import SpbStats
from repro.core.store_buffer import StoreBufferStats
from repro.energy.model import EnergyBreakdown
from repro.memory.cache import CacheStats
from repro.memory.hierarchy import TrafficStats
from repro.memory.mshr import MSHRStats
from repro.multicore.system import MulticoreResult
from repro.prefetch.stats import PrefetchOutcomes
from repro.sim.runner import run_key
from repro.stats.counters import PipelineStats, StallBreakdown
from repro.stats.result import SimResult
from repro.stats.topdown import TopDownMetrics

SCHEMA_VERSION = 2  # 2: result keys name the workload kind

#: Result roots the store accepts (single-core and multicore runs).
_RESULT_ROOTS = (SimResult, MulticoreResult)

#: Dataclasses the codec may embed; looked up by class name on decode.
_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SimResult,
        MulticoreResult,
        PipelineStats,
        StallBreakdown,
        TopDownMetrics,
        TrafficStats,
        CacheStats,
        PrefetchOutcomes,
        MSHRStats,
        StoreBufferStats,
        StorePrefetchEngineStats,
        SpbStats,
        EnergyBreakdown,
    )
}


def multicore_result_key(
    name: str, threads: int, length: int, seed: int, config,
    kind: str = "parsec",
) -> str:
    """Canonical content key of one multicore run.

    The multicore analogue of :func:`repro.sim.runner.result_key`: traces
    are deterministic functions of the factory ``kind`` and (name, threads,
    per-thread length, seed), so together with ``config.cache_key()`` the
    string identifies the run completely.  Multicore runs have no warm-up
    phase, hence no ``w`` component; the ``T`` component keeps multicore
    keys disjoint from single-core ones.
    """
    return run_key(kind, name, f"T{threads}-L{length}-s{seed}", config)


class ResultCodecError(ValueError):
    """A result contained a value the codec cannot round-trip."""


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _TYPES:
            raise ResultCodecError(f"unregistered dataclass {name!r}")
        return {
            "__dc__": name,
            "f": {
                field.name: _encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        # Tagged pair list: unambiguous and key-type preserving (PC keys
        # in ``sb_stall_by_pc`` are ints, which plain JSON would stringify).
        return {"__map__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    raise ResultCodecError(f"cannot encode {type(value).__name__!r}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__dc__" in value:
            cls = _TYPES[value["__dc__"]]
            fields = {name: _decode(item) for name, item in value["f"].items()}
            return cls(**fields)
        if "__map__" in value:
            return {_decode(k): _decode(v) for k, v in value["__map__"]}
        raise ResultCodecError(f"unknown tagged object: {sorted(value)}")
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def encode_result(result: SimResult) -> dict:
    """Encode a :class:`SimResult` tree into JSON-serialisable data."""
    return _encode(result)


def decode_result(payload: dict) -> SimResult:
    """Inverse of :func:`encode_result`."""
    result = _decode(payload)
    if not isinstance(result, SimResult):
        raise ResultCodecError("payload did not decode to a SimResult")
    return result


def encode_multicore_result(result: MulticoreResult) -> dict:
    """Encode a :class:`MulticoreResult` (per-core stats tree).

    The ``pipelines`` field holds the run's live simulator objects — they
    are process-local handles, not results, so the encoded form drops them;
    a decoded result answers every statistics query but cannot be re-run.
    """
    return _encode(dataclasses.replace(result, pipelines=[]))


def decode_multicore_result(payload: dict) -> MulticoreResult:
    """Inverse of :func:`encode_multicore_result` (``pipelines`` stay empty)."""
    result = _decode(payload)
    if not isinstance(result, MulticoreResult):
        raise ResultCodecError("payload did not decode to a MulticoreResult")
    return result


def _safe_name(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", key)


class ResultStore:
    """Directory of schema-stamped JSON result files keyed by content key."""

    def __init__(self, root: str, schema_version: int = SCHEMA_VERSION) -> None:
        self.root = root
        self.schema_version = schema_version
        self.saves = 0
        self.loads = 0  # successful loads
        self.corrupt_loads = 0  # unreadable/mismatched files skipped

    def path_for(self, key: str) -> str:
        """Absolute path of the file backing ``key``."""
        return os.path.join(self.root, _safe_name(key) + ".json")

    def save(self, key: str, result: "SimResult | MulticoreResult") -> str:
        """Atomically persist one result; returns the file path."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(key)
        encoded = (
            encode_multicore_result(result)
            if isinstance(result, MulticoreResult)
            else encode_result(result)
        )
        payload = {
            "schema": self.schema_version,
            "key": key,
            "result": encoded,
        }
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self.saves += 1
        return path

    def load(self, key: str) -> "SimResult | MulticoreResult | None":
        """Fetch one result; any problem whatsoever reads as a miss."""
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("schema") != self.schema_version:
                raise ResultCodecError(
                    f"schema {payload.get('schema')!r} != {self.schema_version}"
                )
            if payload.get("key") != key:
                # Distinct keys can share a file name (see _safe_name).
                raise ResultCodecError(f"file holds key {payload.get('key')!r}")
            result = _decode(payload["result"])
            if not isinstance(result, _RESULT_ROOTS):
                raise ResultCodecError("payload did not decode to a result")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.corrupt_loads += 1
            return None
        self.loads += 1
        return result

    def keys(self) -> list[str]:
        """Stored keys (from the ``key`` field, tolerating bad files)."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name), encoding="utf-8") as f:
                    found.append(json.load(f)["key"])
            except (OSError, ValueError, KeyError):
                continue
        return found

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        if os.path.isdir(self.root):
            for name in os.listdir(self.root):
                if name.endswith(".json"):
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
        return removed

    def __len__(self) -> int:
        if not os.path.isdir(self.root):
            return 0
        return sum(1 for name in os.listdir(self.root) if name.endswith(".json"))
