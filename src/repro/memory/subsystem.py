"""The shared memory system an L1D miss traverses.

``MemorySubsystem`` stitches interconnect, L2 banks and DRAM channels
into the two operations the GPU simulator needs:

* :meth:`issue_read` -- a read request for one block; returns the
  completion cycle.  Per-component latency is accumulated into plain
  integer slot counters (no :class:`~repro.gpu.stats.LatencyBreakdown`
  object per access -- this is the simulator's hottest allocation site);
  :meth:`finalize_stats` materializes the aggregate breakdown that feeds
  Figure 1a, and :meth:`issue_read_sampled` materializes a per-access
  breakdown on demand (tests, latency studies).
* :meth:`issue_writeback` -- fire-and-forget dirty-block traffic; it
  consumes network/L2/DRAM bandwidth (so it congests reads, the paper's
  write-pressure effect) but nobody waits on it.

The whole object is pure ``busy_until`` arithmetic -- no event loop --
which keeps the Python simulator fast while preserving queueing behaviour.
"""

from __future__ import annotations

from typing import Tuple

from repro.gpu.config import GPUConfig
from repro.gpu.stats import LatencyBreakdown, MemorySystemStats
from repro.memory.dram import DRAMChannel
from repro.memory.interconnect import Interconnect
from repro.memory.l2cache import L2Bank

__all__ = [
    "MemorySubsystem",
]


class MemorySubsystem:
    """Interconnect + shared L2 + GDDR5 DRAM."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.network = Interconnect(config)
        self.l2_banks = [
            L2Bank(bank_id, config) for bank_id in range(config.l2_num_banks)
        ]
        self.channels = [
            DRAMChannel(channel_id, config)
            for channel_id in range(config.dram_channels)
        ]
        self.stats = MemorySystemStats()
        # latency slot counters (materialized by finalize_stats)
        self._lat_network = 0
        self._lat_l2 = 0
        self._lat_dram = 0

    @property
    def min_read_latency(self) -> int:
        """Cycles from issuing a read to its completion with every port,
        bank and channel idle and the block in L2: the request flit, the
        L2 service and the response flits, plus the network both ways."""
        network = self.network
        return (network.request_flits + network.response_flits
                + 2 * network.base_latency + self.config.l2_service_cycles)

    # ------------------------------------------------------------------
    # The two operations below do the per-hop arithmetic inline: a port
    # or bank is a ``busy_until`` server -- start at max(arrival, free),
    # hold it for the occupancy -- exactly what
    # Interconnect.send_request/send_response/send_writeback and
    # L2Bank.start_service do one hop at a time.  Blocks interleave over
    # L2 banks and DRAM channels by ``block % count``; a DRAM channel
    # sees the block with its channel bits stripped (``block // count``).
    def issue_read(self, block_addr: int, sm_id: int, cycle: int) -> int:
        """Fetch one block for an L1D miss; returns the completion cycle.

        The slot-based fast path: per-component latency goes into
        integer accumulators, no breakdown object is constructed.  Use
        :meth:`issue_read_sampled` when the per-access decomposition is
        needed.
        """
        stats = self.stats
        network = self.network
        config = self.config
        stats.reads += 1

        # SM -> L2: one address flit through the SM's injection port
        flits = network.request_flits
        network.request_flits_sent += flits
        ports = network.sm_inject
        start = ports[sm_id]
        if start < cycle:
            start = cycle
        ports[sm_id] = start + flits
        arrive_l2 = start + flits + network.base_latency

        # the L2 bank: queue behind its occupancy, then look up
        bank = self.l2_banks[block_addr % config.l2_num_banks]
        service_start = bank.busy_until
        if service_start < arrive_l2:
            service_start = arrive_l2
        bank.busy_until = service_start + config.l2_occupancy_cycles
        service_done, hit, victim = bank.access(
            block_addr, False, service_start
        )

        if hit:
            stats.l2_hits += 1
            data_at = service_done
        else:
            stats.l2_misses += 1
            channels = self.channels
            count = config.dram_channels
            data_at = channels[block_addr % count].access(
                block_addr // count, service_done
            )
            stats.dram_reads += 1
            if victim != -1:
                # L2 victim writeback rides the same channel afterwards
                channels[victim % count].access(victim // count, data_at)
                stats.dram_writes += 1
            self._lat_dram += data_at - service_done

        # L2 -> SM: the block's data flits through the bank's port
        flits = network.response_flits
        network.response_flits_sent += flits
        ports = network.bank_inject
        bank_id = bank.bank_id
        start = ports[bank_id]
        if start < data_at:
            start = data_at
        ports[bank_id] = start + flits
        completion = start + flits + network.base_latency

        self._lat_network += (arrive_l2 - cycle) + (completion - data_at)
        self._lat_l2 += (service_start - arrive_l2) + config.l2_service_cycles
        return completion

    def issue_read_sampled(
        self, block_addr: int, sm_id: int, cycle: int
    ) -> Tuple[int, LatencyBreakdown]:
        """Like :meth:`issue_read`, but also materialize this access's
        :class:`LatencyBreakdown` (sampling/diagnostic path)."""
        network_before = self._lat_network
        l2_before = self._lat_l2
        dram_before = self._lat_dram
        completion = self.issue_read(block_addr, sm_id, cycle)
        return completion, LatencyBreakdown(
            network=self._lat_network - network_before,
            l2=self._lat_l2 - l2_before,
            dram=self._lat_dram - dram_before,
        )

    # ------------------------------------------------------------------
    def issue_writeback(self, block_addr: int, sm_id: int, cycle: int) -> None:
        """Send one dirty block toward L2 (fire-and-forget)."""
        stats = self.stats
        network = self.network
        config = self.config
        stats.writebacks += 1

        # SM -> L2: a data-sized request through the SM's injection port
        flits = network.response_flits
        network.request_flits_sent += flits
        ports = network.sm_inject
        start = ports[sm_id]
        if start < cycle:
            start = cycle
        ports[sm_id] = start + flits
        arrive_l2 = start + flits + network.base_latency
        stats.writeback_flits += flits

        bank = self.l2_banks[block_addr % config.l2_num_banks]
        service_start = bank.busy_until
        if service_start < arrive_l2:
            service_start = arrive_l2
        bank.busy_until = service_start + config.l2_occupancy_cycles
        _, hit, victim = bank.access(block_addr, True, service_start)
        if hit:
            stats.l2_hits += 1
        else:
            stats.l2_misses += 1
        if victim != -1:
            count = config.dram_channels
            self.channels[victim % count].access(
                victim // count, service_start
            )
            stats.dram_writes += 1

    # ------------------------------------------------------------------
    def finalize_stats(self) -> MemorySystemStats:
        """Fold per-component counters into the stats object.

        Flit traffic is reconciled from the interconnect's lifetime
        counters -- the single source of truth for what actually crossed
        the network.  ``writeback_flits`` (accumulated per call; the
        only data-sized traffic in the request direction) splits the
        request-direction total into address-sized read requests and
        data-sized dirty writebacks.
        """
        network = self.network
        self.stats.request_flits = (
            network.request_flits_sent - self.stats.writeback_flits
        )
        self.stats.response_flits = network.response_flits_sent
        self.stats.latency = LatencyBreakdown(
            network=self._lat_network,
            l2=self._lat_l2,
            dram=self._lat_dram,
        )
        for channel in self.channels:
            self.stats.dram_row_hits += channel.row_hits
            self.stats.dram_row_misses += channel.row_misses
        return self.stats
