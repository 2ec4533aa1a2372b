"""Tag queue: the non-blocking front of the STT-MRAM bank (Section IV-A).

STT-MRAM service latency varies (tag-search iterations, 5-cycle writes),
which would stall the SM pipeline.  FUSE interposes a 16-entry FIFO of
pending STT-MRAM operations -- each entry carries only a command type, tag
and index, so it is cheap.  Operations supported:

* ``read``  -- a load that hit in the STT-MRAM bank,
* ``fill``  -- an off-chip fill routed to the STT-MRAM bank,
* ``F``     -- a migration from the swap buffer (SRAM eviction), the
  paper's "F"-marked command.

A *write update* to a block resident in STT-MRAM (a read-level
misprediction) cannot ride the queue because the queue holds no 128-byte
payloads; the controller must **flush** the queue first (Section IV-A
observes this affects ~7% of requests).

Timing: the queue models the bank as a FIFO server.  Enqueueing an
operation at cycle ``c`` completes at ``max(c, previous completion) +
latency``; queue occupancy is the set of operations not yet completed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.cache.engine import TIMING

__all__ = [
    "TagQueue",
]


class TagQueue:
    """FIFO service queue in front of the STT-MRAM bank.

    Args:
        capacity: maximum simultaneously pending operations (Table I: 16).

    Service times are the STT-MRAM bank's
    (:data:`~repro.cache.engine.bank.TIMING`): reads take
    ``read_latency``; fills and "F" migrations are writes and take
    ``write_latency``.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        stt = TIMING["stt"]
        self.read_latency = stt.read_latency
        self.write_latency = stt.write_latency
        self.read_occupancy = stt.read_occupancy
        #: completion cycles of pending operations, oldest first
        self._pending: Deque[int] = deque()
        self._free_at = 0

    # ------------------------------------------------------------------
    def _prune(self, cycle: int) -> None:
        pending = self._pending
        while pending and pending[0] <= cycle:
            pending.popleft()

    def is_full(self, cycle: int) -> bool:
        """True when no operation can be accepted at *cycle*."""
        pending = self._pending
        while pending and pending[0] <= cycle:  # _prune, inline
            pending.popleft()
        return len(pending) >= self.capacity

    def head_completion(self, cycle: int) -> Optional[int]:
        """Completion cycle of the oldest operation still pending at
        *cycle*, or None when the queue is empty.  The FIFO retires from
        its head, so a full queue stays full until then unless something
        is enqueued."""
        self._prune(cycle)
        return self._pending[0] if self._pending else None

    # ------------------------------------------------------------------
    def enqueue(
        self,
        op: str,
        cycle: int,
        extra_search_cycles: int = 0,
        force: bool = False,
    ) -> int:
        """Enqueue an operation; returns its completion cycle.

        Callers must check :meth:`is_full` first, except for *fills*: an
        off-chip response cannot be refused, so fills pass ``force=True``
        and queue beyond capacity (the MSHR is their real buffer).

        Args:
            op: ``"read"``, ``"fill"`` or ``"migrate"``.
            cycle: arrival cycle.
            extra_search_cycles: tag-search latency to serialise in front
                of the bank operation (associativity approximation).
            force: accept even when the queue is at capacity.

        Raises:
            RuntimeError: when the queue is full and *force* is False
            (check-then-commit).
        """
        pending = self._pending
        while pending and pending[0] <= cycle:  # _prune, inline
            pending.popleft()
        if len(pending) >= self.capacity and not force:
            raise RuntimeError("tag queue enqueue() on a full queue")
        start = self._free_at if self._free_at > cycle else cycle
        # Reads are pipelined (tag polling overlaps the next operation's
        # data access), so they occupy the bank for the read occupancy;
        # MTJ writes (fills, migrations) hold it for the full write
        # latency.
        if op == "read":
            completion = start + self.read_latency + extra_search_cycles
            self._free_at = start + self.read_occupancy
        elif op == "fill" or op == "migrate":
            completion = start + self.write_latency + extra_search_cycles
            self._free_at = completion
        else:
            raise ValueError(f"unknown tag-queue op {op!r}")
        pending.append(completion)
        return completion

    def occupy_until(self, cycle: int) -> None:
        """Hold the bank busy until *cycle* without a queued entry.

        Used for operations the queue cannot carry (write updates and
        migration reads happen directly against the bank after a flush).
        """
        self._free_at = max(self._free_at, cycle)

    # ------------------------------------------------------------------
    def flush(self, cycle: int) -> int:
        """Drain every pending operation (write-update misprediction).

        Returns the drain-complete cycle; the caller then performs its
        write starting from it.
        """
        drain_done = max(cycle, self._free_at)
        self._pending.clear()
        # The bank is busy until the drain finishes.
        self._free_at = drain_done
        return drain_done
