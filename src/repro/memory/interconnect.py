"""Butterfly interconnection network model.

The paper's machine connects 15 SMs to 12 L2 banks through a butterfly
topology (27 nodes).  The model captures what matters for Figure 1's
latency decomposition:

* a fixed traversal latency (``net_hops`` x ``net_hop_cycles``), and
* serialisation + queueing at the injection ports: a request packet is a
  single flit (address + control); a response carries the 128-byte block
  (``1 + 128/flit_bytes`` flits).  Each port is a ``busy_until`` server,
  so bursts of traffic queue up and the measured network latency grows
  with congestion, as on the real fabric.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cache.request import BLOCK_SIZE
from repro.gpu.config import GPUConfig

__all__ = [
    "Interconnect",
]


class Interconnect:
    """Request/response network between SMs and L2 banks."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.base_latency = config.net_hops * config.net_hop_cycles
        self.request_flits = 1
        self.response_flits = 1 + BLOCK_SIZE // config.flit_bytes
        #: per-SM injection ports (requests, writebacks): the cycle each
        #: port is free again (the memory subsystem's hot path does the
        #: same port arithmetic as :meth:`_traverse` inline)
        self.sm_inject: List[int] = [0] * config.num_sms
        #: per-bank injection ports (responses)
        self.bank_inject: List[int] = [0] * config.l2_num_banks
        # lifetime counters
        self.request_flits_sent = 0
        self.response_flits_sent = 0

    # ------------------------------------------------------------------
    def _traverse(
        self, ports: List[int], port_id: int, cycle: int, flits: int
    ) -> Tuple[int, int]:
        """Send *flits* through ``ports[port_id]`` starting at *cycle*.

        Returns ``(arrival_cycle, network_cycles)`` where network_cycles
        includes queueing, serialisation and traversal.
        """
        start = max(cycle, ports[port_id])
        ports[port_id] = start + flits
        arrival = start + flits + self.base_latency
        return arrival, arrival - cycle

    # ------------------------------------------------------------------
    def send_request(
        self, sm_id: int, cycle: int, flits: int | None = None
    ) -> Tuple[int, int]:
        """SM -> L2 direction; returns ``(arrival, network_cycles)``."""
        flits = self.request_flits if flits is None else flits
        self.request_flits_sent += flits
        return self._traverse(self.sm_inject, sm_id, cycle, flits)

    def send_response(
        self, bank_id: int, cycle: int, flits: int | None = None
    ) -> Tuple[int, int]:
        """L2 -> SM direction; returns ``(arrival, network_cycles)``."""
        flits = self.response_flits if flits is None else flits
        self.response_flits_sent += flits
        return self._traverse(self.bank_inject, bank_id, cycle, flits)

    def send_writeback(self, sm_id: int, cycle: int) -> Tuple[int, int]:
        """A dirty L1D block travelling to L2 (data-sized request)."""
        return self.send_request(sm_id, cycle, flits=self.response_flits)
