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

from typing import Dict, Optional

__all__ = [
    "SwapBuffer",
]


class SwapBuffer:
    """A tiny fully-associative buffer of in-flight SRAM->STT migrations.

    The buffer holds only each parked block's release cycle: the line's
    metadata is already installed in the STT tag array, which also
    takes a write that hits the parked copy.

    Args:
        num_entries: 128-byte data registers (Table I: 3).
    """

    def __init__(self, num_entries: int = 3) -> None:
        if num_entries < 0:
            raise ValueError("num_entries must be >= 0")
        self.num_entries = num_entries
        #: parked block -> the cycle its "F" command completes
        self._entries: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _prune(self, cycle: int) -> None:
        entries = self._entries
        if not entries:
            return
        for addr, release_cycle in list(entries.items()):
            if release_cycle <= cycle:
                del entries[addr]

    def is_full(self, cycle: int) -> bool:
        """True when no eviction can be staged at *cycle*."""
        if self.num_entries == 0:
            return True
        self._prune(cycle)
        return len(self._entries) >= self.num_entries

    def contains(self, block_addr: int, cycle: int) -> bool:
        """True when *block_addr* is parked in the buffer at *cycle* (a
        request for it is served from the buffer)."""
        if not self._entries:
            return False  # the common case: nothing parked
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
        return min(entries.values())

    # ------------------------------------------------------------------
    def stage(self, block_addr: int, cycle: int, release_cycle: int) -> None:
        """Park an evicted line until its STT-MRAM write completes.

        Args:
            release_cycle: completion cycle of the paired "F" command in
                the tag queue.

        Raises:
            RuntimeError: when the buffer is full (check-then-commit).
        """
        if self.is_full(cycle):
            raise RuntimeError("swap buffer stage() on a full buffer")
        self._entries[block_addr] = release_cycle
