"""GDDR5 DRAM channel model.

Table I configures 6 channels with tCL/tRCD/tRAS = 12/12/28 (DRAM
cycles).  The model keeps per-bank row-buffer state and a shared data
bus per channel:

* **row hit**  -- pay tCL then burst,
* **row closed** -- tRCD + tCL,
* **row conflict** -- precharge (tRP, not before the row's activate has
  aged tRAS) + tRCD + tCL.

All timings convert to core cycles through ``dram_clock_ratio``.  The
paper's argument that GPU DRAM is built for bandwidth rather than latency
(wide, slow interface plus deep request queues, Section II-A2) shows up
here as the large constant latency plus queueing at the bank and bus
servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.gpu.config import GPUConfig

__all__ = [
    "DRAMChannel",
]


@dataclass(slots=True)
class _BankState:
    open_row: int = -1
    busy_until: int = 0
    activate_cycle: int = -(10**9)


class DRAMChannel:
    """One GDDR5 channel: banks with row buffers plus a shared data bus."""

    def __init__(self, channel_id: int, config: GPUConfig) -> None:
        self.channel_id = channel_id
        self.config = config
        ratio = config.dram_clock_ratio
        self.tCL = config.tCL * ratio
        self.tRCD = config.tRCD * ratio
        self.tRP = config.tRP * ratio
        self.tRAS = config.tRAS * ratio
        self.burst = config.dram_burst_cycles * ratio
        self._banks: List[_BankState] = [
            _BankState() for _ in range(config.dram_banks_per_channel)
        ]
        self._blocks_per_row = config.blocks_per_dram_row
        self._controller_cycles = config.dram_controller_cycles
        self._bus_busy_until = 0
        self.row_hits = 0
        self.row_misses = 0

    # ------------------------------------------------------------------
    def access(self, block_addr: int, cycle: int) -> int:
        """Service one 128-byte access; returns the completion cycle.

        *block_addr* has the channel-interleave bits stripped; it maps to
        a (bank, row) by consecutive rows striping across the banks.
        """
        banks = self._banks
        row_addr = block_addr // self._blocks_per_row
        bank = banks[row_addr % len(banks)]
        row = row_addr // len(banks)

        # memory-controller request-queue processing precedes the bank
        cycle = cycle + self._controller_cycles
        start = max(cycle, bank.busy_until)

        if bank.open_row == row:
            self.row_hits += 1
            command_latency = self.tCL
        elif bank.open_row == -1:
            self.row_misses += 1
            bank.activate_cycle = start
            command_latency = self.tRCD + self.tCL
        else:
            self.row_misses += 1
            # precharge may not begin before the open row aged tRAS
            start = max(start, bank.activate_cycle + self.tRAS)
            bank.activate_cycle = start + self.tRP
            command_latency = self.tRP + self.tRCD + self.tCL

        data_ready = start + command_latency
        bus_start = max(data_ready, self._bus_busy_until)
        completion = bus_start + self.burst
        self._bus_busy_until = completion

        bank.open_row = row
        bank.busy_until = data_ready
        return completion

    # ------------------------------------------------------------------
    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0
