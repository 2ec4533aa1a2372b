"""Swap buffer: staging registers between the SRAM and STT-MRAM banks.

When the SRAM bank evicts a line whose destiny is the STT-MRAM bank, the
5-cycle STT-MRAM write would stall the SM.  FUSE instead parks the evicted
128-byte line in one of (up to) three swap-buffer registers (Table I) and
enqueues an "F" command into the tag queue; the line drains into STT-MRAM
in the background.  While parked, the line remains *visible*: lookups that
hit the swap buffer are served at register speed, which is how FUSE keeps
coherence without snooping (Section IV-A -- the FIFO tag queue pairs each
"F" command with its buffer entry).

Timing: each entry is occupied from the eviction until its "F" operation
completes in the STT-MRAM bank.  A full buffer is a structural hazard the
cache reports as a reservation failure (counted as an STT-MRAM stall,
Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "SwapBuffer",
]


@dataclass(slots=True)
class _SwapEntry:
    block_addr: int
    dirty: bool
    fill_pc: int
    predicted_level: Optional[object]
    release_cycle: int


class SwapBuffer:
    """A tiny fully-associative buffer of in-flight SRAM->STT migrations.

    Args:
        num_entries: 128-byte data registers (Table I: 3).
    """

    def __init__(self, num_entries: int = 3) -> None:
        if num_entries < 0:
            raise ValueError("num_entries must be >= 0")
        self.num_entries = num_entries
        self._entries: Dict[int, _SwapEntry] = {}

    # ------------------------------------------------------------------
    def _prune(self, cycle: int) -> None:
        entries = self._entries
        if not entries:
            return
        for addr, entry in list(entries.items()):
            if entry.release_cycle <= cycle:
                del entries[addr]

    def occupancy(self, cycle: int) -> int:
        """Entries still in flight at *cycle*."""
        self._prune(cycle)
        return len(self._entries)

    def is_full(self, cycle: int) -> bool:
        """True when no eviction can be staged at *cycle*."""
        if self.num_entries == 0:
            return True
        self._prune(cycle)
        return len(self._entries) >= self.num_entries

    def contains(self, block_addr: int, cycle: int) -> bool:
        """True when *block_addr* is parked in the buffer at *cycle*."""
        self._prune(cycle)
        return block_addr in self._entries

    def next_release(self, cycle: int) -> Optional[int]:
        """Earliest cycle after *cycle* at which an entry drains, or None
        when nothing is parked.  A full buffer stays full until then
        unless a new eviction is staged."""
        self._prune(cycle)
        entries = self._entries
        if not entries:
            return None
        return min([entry.release_cycle for entry in entries.values()])

    # ------------------------------------------------------------------
    def stage(
        self,
        block_addr: int,
        cycle: int,
        release_cycle: int,
        dirty: bool = False,
        fill_pc: int = 0,
        predicted_level: Optional[object] = None,
    ) -> None:
        """Park an evicted line until its STT-MRAM write completes.

        Args:
            release_cycle: completion cycle of the paired "F" command in
                the tag queue.

        Raises:
            RuntimeError: when the buffer is full (check-then-commit).
        """
        if self.is_full(cycle):
            raise RuntimeError("swap buffer stage() on a full buffer")
        self._entries[block_addr] = _SwapEntry(
            block_addr=block_addr,
            dirty=dirty,
            fill_pc=fill_pc,
            predicted_level=predicted_level,
            release_cycle=release_cycle,
        )

    def touch(self, block_addr: int, cycle: int, is_write: bool) -> bool:
        """Serve a request from the buffer; True when it hit.

        A write marks the parked copy dirty (the updated data will land in
        STT-MRAM when the "F" command drains).
        """
        if not self._entries:
            return False  # the common case: nothing parked
        self._prune(cycle)
        entry = self._entries.get(block_addr)
        if entry is None:
            return False
        if is_write:
            entry.dirty = True
        return True

    def entry_metadata(
        self, block_addr: int, cycle: int
    ) -> Optional[_SwapEntry]:
        """Metadata of the line parked for *block_addr* at *cycle*, or
        None once its "F" command has drained (diagnostics and tests)."""
        self._prune(cycle)
        return self._entries.get(block_addr)

    def pending_blocks(self, cycle: int) -> List[int]:
        """Blocks currently parked (diagnostics and tests)."""
        self._prune(cycle)
        return list(self._entries)
