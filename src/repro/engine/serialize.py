"""Serialization between simulation objects and plain JSON-safe dicts.

The experiment engine ships :class:`~repro.gpu.stats.SimulationResult`
objects across process boundaries (pickle) and persists them in the
on-disk result store (JSON lines).  This module owns the JSON side: a
lossless round-trip for results (including the attached
:class:`~repro.energy.model.EnergyReport`) and for
:class:`~repro.core.factory.L1DConfig` values, which form part of every
run's content-hashed identity.

``SCHEMA_VERSION`` tags every store record.  Bump it whenever the shape
of the serialized payload (or the semantics of the simulation that
produced it) changes; the store silently drops records carrying a stale
tag, so old caches can never feed wrong numbers into a figure.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.cache.stats import CacheStats
from repro.core.factory import FuseFeatures, L1DConfig
from repro.energy.model import EnergyReport
from repro.gpu.stats import LatencyBreakdown, MemorySystemStats, SimulationResult

__all__ = [
    "SCHEMA_VERSION", "config_from_dict", "config_to_dict",
    "result_from_dict", "result_to_dict",
]

#: Store/record schema version (see module docstring).
#: v2: ``MemorySystemStats.writeback_flits`` split dirty-writeback
#: traffic out of ``request_flits`` (flit accounting fix).
SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# L1DConfig
# ----------------------------------------------------------------------
def config_to_dict(config: L1DConfig) -> Dict[str, Any]:
    """Flatten an :class:`L1DConfig` (and its ``FuseFeatures``) to a dict."""
    return dataclasses.asdict(config)


def config_from_dict(payload: Dict[str, Any]) -> L1DConfig:
    """Rebuild an :class:`L1DConfig` from :func:`config_to_dict` output."""
    data = dict(payload)
    features = data.get("features")
    if features is not None:
        data["features"] = FuseFeatures(**features)
    return L1DConfig(**data)


# ----------------------------------------------------------------------
# SimulationResult
# ----------------------------------------------------------------------
def _memory_to_dict(memory: MemorySystemStats) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(MemorySystemStats):
        value = getattr(memory, field.name)
        if field.name == "latency":
            out["latency"] = {
                "network": value.network, "l2": value.l2, "dram": value.dram,
            }
        else:
            out[field.name] = value
    return out


def _memory_from_dict(payload: Dict[str, Any]) -> MemorySystemStats:
    data = dict(payload)
    latency = data.pop("latency", None) or {}
    return MemorySystemStats(latency=LatencyBreakdown(**latency), **data)


def _energy_to_dict(energy: Optional[EnergyReport]) -> Optional[Dict[str, Any]]:
    if energy is None:
        return None
    return dataclasses.asdict(energy)


def _energy_from_dict(payload) -> Optional[EnergyReport]:
    if payload is None:
        return None
    return EnergyReport(**payload)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Flatten a :class:`SimulationResult` into a JSON-safe dict.

    Every counter is preserved exactly (all fields are ints/floats), so
    :func:`result_from_dict` reproduces a bit-identical result object.
    """
    return {
        "config_name": result.config_name,
        "workload_name": result.workload_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "l1d": result.l1d.as_dict(),
        "memory": _memory_to_dict(result.memory),
        "issue_busy_cycles": result.issue_busy_cycles,
        "num_sms": result.num_sms,
        "load_transactions": result.load_transactions,
        "store_transactions": result.store_transactions,
        "retries": result.retries,
        "energy": _energy_to_dict(result.energy),
    }


def result_from_dict(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""
    return SimulationResult(
        config_name=payload["config_name"],
        workload_name=payload["workload_name"],
        cycles=payload["cycles"],
        instructions=payload["instructions"],
        l1d=CacheStats(**payload["l1d"]),
        memory=_memory_from_dict(payload["memory"]),
        issue_busy_cycles=payload["issue_busy_cycles"],
        num_sms=payload["num_sms"],
        load_transactions=payload["load_transactions"],
        store_transactions=payload["store_transactions"],
        retries=payload["retries"],
        energy=_energy_from_dict(payload["energy"]),
    )
