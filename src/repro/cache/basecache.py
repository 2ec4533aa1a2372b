"""A homogeneous non-blocking cache engine.

``BaseCache`` implements the write-back, write-allocate, MSHR-backed cache
the paper's baselines are built from.  The same engine models

* ``L1-SRAM``  -- 32 KB, 64 sets x 4 ways, 1-cycle reads and writes,
* ``FA-SRAM`` -- 32 KB, 1 set x 256 ways, LRU (idealised full associativity),
* ``L1-NVM``  -- 128 KB pure STT-MRAM, 256 sets x 4 ways, 5-cycle writes
  (Figure 3's "STT-MRAM GPU"),

differing only in geometry and bank timing.  ``By-NVM`` (dead-write bypass)
derives from it in :mod:`repro.cache.nvm_bypass`.

The engine is a thin composition of the shared primitives in
:mod:`repro.cache.engine`: one :class:`~repro.cache.engine.BankPort`
(reads pipelined, STT-MRAM writes occupying the bank for the full write
latency -- exactly the write-penalty mechanism the paper attributes
pure-NVM slowdowns to), one :class:`~repro.cache.engine.MissPath` over
the MSHR, and one :class:`~repro.cache.engine.WritebackSink`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.engine import BankPort, MissPath, WritebackSink
from repro.cache.interface import (
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.cache.mshr import MSHR
from repro.cache.request import MemoryRequest
from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine, TagArray

__all__ = [
    "BaseCache",
]

_HIT = AccessOutcome.HIT
_MISS = AccessOutcome.MISS
_MISS_BYPASS = AccessOutcome.MISS_BYPASS


class BaseCache(L1DCacheModel):
    """Set-associative, write-back, write-allocate, non-blocking cache.

    Args:
        num_sets: sets in the tag array (power of two).
        assoc: ways per set.
        read_latency: cycles from bank start to data available.
        write_latency: cycles a write needs; for STT-MRAM this is 5
            (Table I: "1/5-cycle (W)").
        read_occupancy: bank busy time per read (1 = fully pipelined).
        write_occupancy: bank busy time per write; STT-MRAM writes block
            the bank for the whole write (defaults to ``write_latency``).
        mshr_entries / mshr_max_merge: MSHR geometry.
        technology: ``"sram"`` or ``"stt"``; routes energy event counters.
    """

    #: predictor-accuracy scoring hook for a departed line (By-NVM): a
    #: static ``(stats, line)`` function, so the sink holds no reference
    #: back to the cache
    _score_eviction: Optional[Callable[[CacheStats, CacheLine], None]] = None

    #: bypass predicate on the request PC (By-NVM's dead-write
    #: prediction): when it holds, a clean miss -- block neither resident
    #: nor pending -- goes straight to L2 without allocating
    _bypass_pc: Optional[Callable[[int], bool]] = None

    #: retry replay: a rejection (merge-full MSHR entry, full MSHR, all
    #: ways reserved) reads no clock and mutates nothing but one tag
    #: lookup and one reservation failure; the bypass predicate it may
    #: consult trains only on accepted accesses
    _replay_rejection = L1DCacheModel._replay_lookup_rejection

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        read_latency: int = 1,
        write_latency: int = 1,
        read_occupancy: int = 1,
        write_occupancy: Optional[int] = None,
        mshr_entries: int = 32,
        mshr_max_merge: int = 8,
        technology: str = "sram",
        name: str = "l1d",
    ) -> None:
        super().__init__()
        self.name = name
        self.tags = TagArray(num_sets, assoc, "lru")
        self.mshr = MSHR(mshr_entries, mshr_max_merge)
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.technology = technology
        self.bank = BankPort(
            self.stats,
            technology,
            read_latency=read_latency,
            write_latency=write_latency,
            read_occupancy=read_occupancy,
            write_occupancy=write_occupancy,
        )
        self.miss_path = MissPath(self.mshr, self.stats)
        self.writeback = WritebackSink(self.stats, scorer=self._score_eviction)

    # ------------------------------------------------------------------
    def _access_impl(self, request: MemoryRequest, cycle: int) -> AccessResult:
        stats = self.stats
        stats.tag_lookups += 1
        block = request.block_addr
        hit = self.tags.find(block)

        if hit is not None:
            stats.hits += 1
            is_write = request.is_write
            self.tags.touch(hit[0], hit[1], is_write)
            if is_write:
                stats.write_hits += 1
                ready = self.bank.write(cycle)
            else:
                stats.read_hits += 1
                ready = self.bank.read(cycle)
            return AccessResult(_HIT, ready, (), block)

        # -- miss path ---------------------------------------------------
        mshr = self.mshr
        entry = mshr.get(block)
        if entry is not None:
            return self.miss_path.merge(entry, request, block, cycle)
        bypass_pc = self._bypass_pc
        if bypass_pc is not None and bypass_pc(request.pc):
            stats.bypasses += 1
            return AccessResult(_MISS_BYPASS, cycle, (), block)
        if (mshr.occupancy() >= mshr.num_entries
                or not self.tags.can_reserve(block)):
            return self.miss_path.reject()

        _, _, evicted = self.tags.reserve(block, cycle)
        writebacks = () if evicted is None else self.writeback.evict(evicted)
        mshr.allocate(block, request, self.technology, cycle)
        stats.misses += 1
        return AccessResult(_MISS, cycle, writebacks, block)

    # ------------------------------------------------------------------
    def fill(self, block_addr: int, cycle: int) -> FillResult:
        entry = self.mshr.release(block_addr)
        requests = entry.requests
        primary = requests[0]
        set_idx, way = self.tags.fill(
            block_addr, cycle, primary.is_write, primary.pc
        )
        if len(requests) > 1:
            # account residency counters for merged secondaries
            MissPath.apply_merged(entry, self.tags.line(set_idx, way))

        ready = self.bank.write(cycle)
        self.stats.fills += 1
        return FillResult(ready, requests, ())
