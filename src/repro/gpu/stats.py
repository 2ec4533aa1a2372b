"""Simulation statistics containers.

``SimulationResult`` is what the experiment harness consumes: enough to
compute every figure's y-axis (IPC, miss rates, stall decompositions,
energy inputs, latency decompositions) without re-running anything.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache.stats import CacheStats

__all__ = [
    "LatencyBreakdown", "MemorySystemStats", "SimulationResult",
    "merge_cache_stats", "stats_fields",
]


@dataclass(slots=True)
class LatencyBreakdown:
    """Cycle decomposition of off-chip request latency (Figure 1a input).

    Accumulated over all off-chip requests: each request's end-to-end
    latency is split into the cycles attributable to the interconnect,
    the shared L2 and DRAM.
    """

    network: int = 0
    l2: int = 0
    dram: int = 0

    @property
    def total(self) -> int:
        return self.network + self.l2 + self.dram

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        if not isinstance(other, LatencyBreakdown):
            return NotImplemented
        return LatencyBreakdown(
            self.network + other.network,
            self.l2 + other.l2,
            self.dram + other.dram,
        )


@dataclass(slots=True)
class MemorySystemStats:
    """Counters for the shared memory system (interconnect + L2 + DRAM)."""

    reads: int = 0
    writebacks: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    #: address-sized read-request traffic (SM -> L2 direction)
    request_flits: int = 0
    #: data-sized fill responses (L2 -> SM direction)
    response_flits: int = 0
    #: data-sized dirty-block writebacks (SM -> L2 direction); kept out
    #: of ``request_flits`` so the address/data split is honest
    writeback_flits: int = 0
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)

    @property
    def l2_miss_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_misses / total if total else 0.0

    @property
    def dram_row_hit_rate(self) -> float:
        total = self.dram_row_hits + self.dram_row_misses
        return self.dram_row_hits / total if total else 0.0


@dataclass
class SimulationResult:
    """Everything one (configuration, workload) run produced."""

    config_name: str
    workload_name: str
    cycles: int
    instructions: int
    l1d: CacheStats
    memory: MemorySystemStats
    #: issue-port busy cycles summed over SMs (utilisation accounting)
    issue_busy_cycles: int = 0
    num_sms: int = 1
    #: loads completed / retried (simulator-side accounting)
    load_transactions: int = 0
    store_transactions: int = 0
    retries: int = 0
    #: energy report, attached by the harness (repro.energy.model)
    energy: Optional[object] = None

    @property
    def ipc(self) -> float:
        """Machine-wide instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def ipc_per_sm(self) -> float:
        return self.ipc / self.num_sms if self.num_sms else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d.miss_rate

    @property
    def apki(self) -> float:
        """L1D accesses per kilo-instruction (Table II's metric)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l1d.accesses / self.instructions

    @property
    def offchip_fraction(self) -> float:
        """Share of memory-wait attributable to the off-chip path.

        Used by the Figure 1a reproduction: the ratio of off-chip latency
        (network + L2 + DRAM) to total latency including issue work.
        """
        offchip = self.memory.latency.total
        denominator = offchip + self.issue_busy_cycles
        return offchip / denominator if denominator else 0.0

    def as_dict(self) -> Dict:
        """Flat dictionary (reports, EXPERIMENTS.md tables)."""
        return {
            "config": self.config_name,
            "workload": self.workload_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "l1d_miss_rate": self.l1d_miss_rate,
            "apki": self.apki,
            "l2_miss_rate": self.memory.l2_miss_rate,
            "offchip_fraction": self.offchip_fraction,
        }


def merge_cache_stats(stats_list) -> CacheStats:
    """Sum per-SM cache statistics into a machine-wide total."""
    total = CacheStats()
    for stats in stats_list:
        total = total + stats
    return total


def stats_fields() -> list:
    """Names of all MemorySystemStats counters (test helper)."""
    return [f.name for f in dataclasses.fields(MemorySystemStats)]
