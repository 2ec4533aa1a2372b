"""Warp state tracking.

A warp is an **index cursor over a packed trace stream** (see
:class:`~repro.workloads.arena.PackedTraceArena`) plus the
scoreboard-ish state the SM needs: when it may issue next
(``ready_at``), how many load transactions it is blocked on
(``outstanding``), and lifetime counters.  The SM's issue path reads
the columnar op buffers directly through the cursor fields
(``op_kind``/``op_pc``/``op_count``/``txn_off``/``txns``/``op_index``/
``op_end``), so the hot loop allocates no ``WarpInstruction`` objects;
the :meth:`next_instruction`/:meth:`peek` methods remain as the
object-level compatibility API (tests, tooling) and unpack on demand.

GPU warps are never context-switched out (their registers stay resident,
Section II-A), so a warp here lives from construction to stream
exhaustion.  The ``done`` flag flips only when the exhausted cursor is
*consulted* (by the SM's issue attempt or by this API) -- not eagerly at
construction -- preserving the issue schedule of the lazy-iterator warp
this replaced bit-for-bit, including for empty streams.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.workloads.arena import PackedTraceArena
from repro.workloads.trace import WarpInstruction

__all__ = [
    "Warp",
]

#: shared zero-op arena the no-stream constructor binds, so building a
#: warp that immediately re-binds (``from_arena``) allocates nothing
_EMPTY_ARENA: Optional[PackedTraceArena] = None


def _empty_arena() -> PackedTraceArena:
    global _EMPTY_ARENA
    if _EMPTY_ARENA is None:
        _EMPTY_ARENA = PackedTraceArena.from_streams(
            "<empty>", 1, 1, lambda sm, w: (), count_as_pack=False
        )
    return _EMPTY_ARENA


class Warp:
    """One warp's execution state within an SM."""

    __slots__ = (
        "warp_id",
        "arena",
        "op_kind",
        "op_pc",
        "op_count",
        "txn_off",
        "txns",
        "op_index",
        "op_end",
        "ready_at",
        "outstanding",
        "done",
        "instructions_issued",
        "memory_instructions",
    )

    def __init__(
        self,
        warp_id: int,
        stream: Optional[Iterable[WarpInstruction]] = None,
    ) -> None:
        self.warp_id = warp_id
        self.ready_at = 0
        self.outstanding = 0
        self.done = False
        self.instructions_issued = 0
        self.memory_instructions = 0
        # compatibility constructor: pack the given stream into a private
        # single-warp arena (the simulator's warps re-bind to a shared
        # arena via from_arena instead); packing an already-materialised
        # stream is a re-encoding, not trace generation
        if stream is None:
            self._bind(_empty_arena(), sm_id=0, warp_index=0)
        else:
            self._bind(
                PackedTraceArena.from_streams(
                    "<warp>", 1, 1, lambda sm, w: stream,
                    count_as_pack=False,
                ),
                sm_id=0, warp_index=0,
            )

    def _bind(self, arena: PackedTraceArena, sm_id: int,
              warp_index: int) -> None:
        self.arena = arena
        self.op_kind = arena.op_kind
        self.op_pc = arena.op_pc
        self.op_count = arena.op_count
        self.txn_off = arena.txn_off
        self.txns = arena.txns
        self.op_index, self.op_end = arena.warp_span(sm_id, warp_index)

    @classmethod
    def from_arena(
        cls, warp_id: int, arena: PackedTraceArena, sm_id: int
    ) -> "Warp":
        """A warp bound to its slice of a shared packed arena."""
        warp = cls(warp_id)
        warp._bind(arena, sm_id=sm_id, warp_index=warp_id)
        return warp

    # ------------------------------------------------------------------
    def next_instruction(self) -> Optional[WarpInstruction]:
        """Consume and return the next instruction; None when exhausted."""
        index = self.op_index
        if index >= self.op_end:
            self.done = True
            return None
        self.op_index = index + 1
        return self.arena.instruction_at(index)

    def peek(self) -> Optional[WarpInstruction]:
        """Look at the next instruction without consuming it."""
        if self.op_index >= self.op_end:
            self.done = True
            return None
        return self.arena.instruction_at(self.op_index)

    # ------------------------------------------------------------------
    @property
    def blocked(self) -> bool:
        """True while the warp waits on outstanding load transactions.

        Hot paths (``SM.try_issue``, ``SM.next_event_time``) inline
        the full readiness predicate -- ``not done and outstanding == 0
        and ready_at <= cycle`` -- instead of calling this property;
        a new blocking condition must be added to those sites too.
        """
        return self.outstanding > 0

    def block_on(self, transactions: int) -> None:
        """Mark the warp blocked on *transactions* pending loads."""
        self.outstanding += transactions

    def complete_transaction(self, cycle: int) -> bool:
        """One pending load finished; True when the warp became ready."""
        if self.outstanding <= 0:
            raise RuntimeError("complete_transaction() without pending loads")
        self.outstanding -= 1
        if self.outstanding == 0:
            self.ready_at = max(self.ready_at, cycle)
            return True
        return False

    def complete_transaction_at(self, ready_cycle: int) -> bool:
        """Retire one pending load whose data arrives at *ready_cycle*.

        Unlike :meth:`complete_transaction` (which is driven by an event
        firing at the completion cycle), this form lets the LSU retire
        transactions *eagerly* at issue/fill-processing time: the warp
        stays blocked until the count drains, and ``ready_at``
        accumulates the maximum data-ready cycle so the warp becomes
        issueable exactly when its last transaction's data lands --
        bit-identical to the event-per-transaction formulation, without
        the per-transaction event traffic.

        Returns True when the warp just became unblocked.
        """
        outstanding = self.outstanding
        if outstanding <= 0:
            raise RuntimeError("complete_transaction_at() without pending loads")
        self.outstanding = outstanding - 1
        if ready_cycle > self.ready_at:
            self.ready_at = ready_cycle
        return outstanding == 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else (
            "blocked" if self.blocked else f"ready@{self.ready_at}"
        )
        return f"Warp({self.warp_id}, {state}, issued={self.instructions_issued})"
