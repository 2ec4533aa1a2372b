"""The "Oracle GPU" L1D: an ideal cache with unbounded capacity.

Figure 3 motivates FUSE by comparing the Vanilla GTX480-like L1D against an
"ideal L1D cache that has enough capacity to avoid cache thrashing".  The
oracle still pays cold (compulsory) misses and MSHR constraints -- only
capacity and conflict misses disappear.  Its banks are likewise idealised
(no ``busy_until`` serialisation): it takes the SRAM latencies of
:data:`~repro.cache.engine.bank.TIMING` and no bank occupancy, so the
only shared machinery it needs is the
:class:`~repro.cache.engine.MissPath` MSHR discipline.
"""

from __future__ import annotations

from typing import Set

from repro.cache.engine import TIMING, MissPath
from repro.cache.interface import (
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.cache.mshr import MSHR
from repro.cache.request import MemoryRequest

__all__ = [
    "OracleCache",
]


class OracleCache(L1DCacheModel):
    """Infinite-capacity L1D (cold misses only).

    Args:
        mshr_entries / mshr_max_merge: the MSHR stays finite so the oracle
            still models realistic miss-level parallelism.
    """

    #: retry replay: a rejection (merge-full or full MSHR) reads no clock
    #: and mutates nothing but one tag lookup and one reservation failure
    _replay_rejection = L1DCacheModel._replay_lookup_rejection

    def __init__(
        self,
        mshr_entries: int = 32,
        mshr_max_merge: int = 8,
        name: str = "Oracle",
    ) -> None:
        super().__init__()
        self.name = name
        sram = TIMING["sram"]
        self.read_latency = sram.read_latency
        self.write_latency = sram.write_latency
        self.mshr = MSHR(mshr_entries, mshr_max_merge)
        self.miss_path = MissPath(self.mshr, self.stats)
        self._resident: Set[int] = set()

    def _access_impl(self, request: MemoryRequest, cycle: int) -> AccessResult:
        stats = self.stats
        stats.tag_lookups += 1
        block = request.block_addr
        if block in self._resident:
            stats.hits += 1
            if request.is_write:
                stats.write_hits += 1
                stats.sram_writes += 1
                ready = cycle + self.write_latency
            else:
                stats.read_hits += 1
                stats.sram_reads += 1
                ready = cycle + self.read_latency
            return AccessResult(AccessOutcome.HIT, ready, (), block)

        mshr = self.mshr
        entry = mshr.get(block)
        if entry is not None:
            return self.miss_path.merge(entry, request, block, cycle)
        if mshr.occupancy() >= mshr.num_entries:
            return self.miss_path.reject()

        mshr.allocate(block, request, "sram", cycle)
        stats.misses += 1
        return AccessResult(AccessOutcome.MISS, cycle, (), block)

    def fill(self, block_addr: int, cycle: int) -> FillResult:
        entry = self.mshr.release(block_addr)
        self._resident.add(block_addr)
        self.stats.fills += 1
        self.stats.sram_writes += 1
        return FillResult(cycle + self.write_latency, entry.requests, ())
