"""Shared L2 cache banks.

Table I: 768 KB total (written "786KB" in the paper; 12 banks x 64 sets x
8 ways x 128 B), ECC-protected, banks shared by all SMs, two banks per
DRAM channel.  The paper attributes a large share of off-chip latency to
the L2 (60x the L1D's when network and queueing are included); here the
bank itself costs ``l2_service_cycles`` and the rest emerges from port
and bank contention.

Timing fidelity note: tag state updates are performed at access time
("magic" in-order update) rather than through reservations; at L2 level
the approximation only perturbs replacement decisions by in-flight
windows, which is noise compared to the L1D effects the paper studies.
"""

from __future__ import annotations

from typing import Tuple

from repro.cache.tag_array import TagArray
from repro.gpu.config import GPUConfig

__all__ = [
    "L2Bank",
]


class L2Bank:
    """One shared L2 bank (write-back, write-allocate, LRU)."""

    def __init__(self, bank_id: int, config: GPUConfig) -> None:
        self.bank_id = bank_id
        self.config = config
        self.tags = TagArray(config.l2_sets, config.l2_assoc, "lru")
        self._num_banks = config.l2_num_banks
        self._service_cycles = config.l2_service_cycles
        #: cycle the bank is free for the next access (the memory
        #: subsystem's hot path applies :meth:`start_service` inline)
        self.busy_until = 0

    # ------------------------------------------------------------------
    def start_service(self, cycle: int) -> int:
        """Acquire the bank; returns the service start cycle."""
        start = max(cycle, self.busy_until)
        self.busy_until = start + self.config.l2_occupancy_cycles
        return start

    # ------------------------------------------------------------------
    def probe(self, block_addr: int) -> bool:
        """Tag check without state change (used by tests)."""
        return self.tags.find(block_addr // self._num_banks) is not None

    def access(
        self, block_addr: int, is_write: bool, cycle: int
    ) -> Tuple[int, bool, int]:
        """Access the bank at *cycle* (bank already acquired by caller).

        Returns ``(service_done_cycle, hit, dirty_victim_block)`` where
        ``dirty_victim_block`` is -1 or the block address that must be
        written back to DRAM because this access displaced it.
        """
        # strip the bank-interleave bits so sets spread over the bank
        local = block_addr // self._num_banks
        tags = self.tags
        hit = tags.find(local)
        service_done = cycle + self._service_cycles
        if hit is not None:
            tags.touch(hit[0], hit[1], is_write)
            return service_done, True, -1

        # installs complete at once, so no way is ever reserved and the
        # install always finds a victim
        _, _, evicted = tags.install(local, cycle, dirty=is_write)
        if evicted is not None and evicted.dirty:
            # restore the interleave bits for the DRAM address
            return (service_done, False,
                    evicted.block_addr * self._num_banks + self.bank_id)
        return service_done, False, -1
