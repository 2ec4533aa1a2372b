"""``BankPort``: one cache bank as a served resource.

An operation arriving at cycle ``c`` starts at ``max(c, busy_until)``
and holds the bank for its *occupancy*; the data-ready cycle adds the
operation latency (plus any serialized extra cycles, e.g. the
approximated tag search in front of an STT-MRAM operation).  Waiting is
charged to ``stats.bank_wait_cycles`` and, for STT-MRAM banks, also to
``stats.stt_write_stall_cycles`` -- waiting behind long MTJ writes is
exactly the Figure 15 stall the paper attributes pure-NVM slowdowns to.

A bank's timing follows from its technology alone: :data:`TIMING` is
Table I's bank timing, and every L1D engine reads it from there.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.cache.stats import CacheStats

__all__ = [
    "BankPort", "BankTiming", "TIMING",
]


class BankTiming(NamedTuple):
    """One technology's bank timing, in cycles.

    ``*_latency`` runs from bank start to done; ``*_occupancy`` is how
    long the operation holds the bank (1 = fully pipelined).
    """

    read_latency: int
    write_latency: int
    read_occupancy: int
    write_occupancy: int


#: Table I bank timing per technology: SRAM is 1/1 cycles and fully
#: pipelined; an STT-MRAM read takes 1 cycle, and a write takes 5 and
#: holds the bank for all of them (rotating the MTJ free layer,
#: Section II-B)
TIMING: Dict[str, BankTiming] = {
    "sram": BankTiming(1, 1, 1, 1),
    "stt": BankTiming(1, 5, 1, 5),
}


class BankPort:
    """Busy-until timing plus occupancy/stall/energy accounting.

    Args:
        stats: the owning cache's flat counter object.
        technology: ``"sram"`` or ``"stt"``; selects the bank's
            :data:`TIMING`, the wait-stall rule and which energy event
            counters read/write operations bump.
        count_events: when False the port only does timing; the caller
            owns the ``sram_*``/``stt_*`` event counters (the FUSE STT
            paths count per routing decision, not per bank operation).
    """

    __slots__ = (
        "stats",
        "technology",
        "read_latency",
        "write_latency",
        "read_occupancy",
        "write_occupancy",
        "count_events",
        "busy_until",
        "_is_stt",
    )

    def __init__(
        self,
        stats: CacheStats,
        technology: str,
        count_events: bool = True,
    ) -> None:
        if technology not in TIMING:
            raise ValueError("technology must be 'sram' or 'stt'")
        self.stats = stats
        self.technology = technology
        (self.read_latency, self.write_latency,
         self.read_occupancy, self.write_occupancy) = TIMING[technology]
        self.count_events = count_events
        self.busy_until = 0
        self._is_stt = technology == "stt"

    # ------------------------------------------------------------------
    def read(self, cycle: int, extra: int = 0) -> int:
        """One bank read; returns the data-ready cycle.

        ``extra`` cycles (tag-search serialization) delay only the
        data-ready cycle: the bank's occupancy stays ``read_occupancy``
        because tag polling overlaps the next operation's access (the
        same pipelining the tag queue models).  Writes, by contrast,
        hold the bank through their ``extra`` cycles -- see
        :meth:`write`.
        """
        stats = self.stats
        start = self.busy_until
        if start > cycle:
            stats.bank_wait_cycles += start - cycle
            if self._is_stt:
                stats.stt_write_stall_cycles += start - cycle
        else:
            start = cycle
        if self.count_events:
            if self._is_stt:
                stats.stt_reads += 1
            else:
                stats.sram_reads += 1
        self.busy_until = start + self.read_occupancy
        return start + extra + self.read_latency

    def write(self, cycle: int, extra: int = 0) -> int:
        """One bank write; returns the write-complete cycle."""
        stats = self.stats
        start = self.busy_until
        if start > cycle:
            stats.bank_wait_cycles += start - cycle
            if self._is_stt:
                stats.stt_write_stall_cycles += start - cycle
        else:
            start = cycle
        if self.count_events:
            if self._is_stt:
                stats.stt_writes += 1
            else:
                stats.sram_writes += 1
        self.busy_until = start + extra + self.write_occupancy
        return start + extra + self.write_latency
