"""Miss Status Holding Registers (MSHR).

The L1D in GPUs is non-blocking: a miss allocates an MSHR entry and the SM
keeps issuing from other warps.  Secondary misses to the same block merge
into the primary entry instead of generating additional off-chip traffic.

FUSE extends the classic MSHR table (Farkas et al.) with *destination bits*
that record whether the pending fill should land in the SRAM bank or the
STT-MRAM bank of the heterogeneous L1D (Section IV-A, Figure 8).  The
``destination`` field below carries that information; homogeneous caches
simply leave it at its default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.request import MemoryRequest

__all__ = [
    "MSHR", "MSHREntry",
]


@dataclass(slots=True)
class MSHREntry:
    """One in-flight miss: the primary request plus merged secondaries."""

    block_addr: int
    requests: List[MemoryRequest] = field(default_factory=list)
    destination: str = "sram"
    allocate_cycle: int = 0

    @property
    def merged_count(self) -> int:
        """Number of requests merged beyond the primary one."""
        return max(0, len(self.requests) - 1)


class MSHR:
    """A bounded table of in-flight misses keyed by block address.

    Args:
        num_entries: maximum simultaneous outstanding blocks (GPGPU-Sim's
            default for Fermi-class L1Ds is 32).
        max_merged: maximum requests merged per entry, including the primary
            (8 matches GPGPU-Sim's ``mshr_max_merge``).

    The per-access operations are bound builtins of the entry table, so
    a cache engine's miss path makes no Python call to reach them:

    * ``get(block_addr)`` -- the outstanding entry, or None;
    * ``occupancy()`` -- entries in flight;
    * ``release(block_addr)`` -- remove and return the entry when its
      fill arrives (``KeyError`` when there is none).
    """

    def __init__(self, num_entries: int = 32, max_merged: int = 8) -> None:
        if num_entries < 1:
            raise ValueError("num_entries must be >= 1")
        if max_merged < 1:
            raise ValueError("max_merged must be >= 1")
        self.num_entries = num_entries
        self.max_merged = max_merged
        self._entries: Dict[int, MSHREntry] = {}
        self.get = self._entries.get
        self.occupancy = self._entries.__len__
        self.release = self._entries.pop

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def full(self) -> bool:
        """True when no new primary miss can be accepted."""
        return len(self._entries) >= self.num_entries

    def probe(self, block_addr: int) -> bool:
        """True when *block_addr* already has an outstanding miss."""
        return block_addr in self._entries

    def can_merge(self, block_addr: int) -> bool:
        """True when a secondary miss to *block_addr* can be merged."""
        entry = self._entries.get(block_addr)
        if entry is None:
            return False
        return len(entry.requests) < self.max_merged

    # ------------------------------------------------------------------
    def allocate(
        self,
        block_addr: int,
        request: MemoryRequest,
        destination: str = "sram",
        cycle: int = 0,
    ) -> MSHREntry:
        """Allocate a new entry for a primary miss.

        Raises:
            RuntimeError: when the table is full or the block is already
                pending (callers must check ``full()`` / ``probe()`` first;
                this keeps the check-then-commit discipline explicit).
        """
        entries = self._entries
        if len(entries) >= self.num_entries:
            raise RuntimeError("MSHR allocate() on a full table")
        if block_addr in entries:
            raise RuntimeError(f"MSHR already tracks block 0x{block_addr:x}")
        entry = entries[block_addr] = MSHREntry(
            block_addr, [request], destination, cycle
        )
        return entry

    def merge(self, block_addr: int, request: MemoryRequest) -> MSHREntry:
        """Merge a secondary miss into an existing entry.

        Raises:
            RuntimeError: when the entry does not exist or is already at its
                merge capacity.
        """
        entry = self._entries.get(block_addr)
        if entry is None:
            raise RuntimeError(f"MSHR merge() without entry 0x{block_addr:x}")
        if len(entry.requests) >= self.max_merged:
            raise RuntimeError(f"MSHR entry 0x{block_addr:x} is merge-full")
        entry.requests.append(request)
        return entry

    def outstanding_blocks(self) -> List[int]:
        """Block addresses currently in flight (for debugging/tests)."""
        return list(self._entries)
