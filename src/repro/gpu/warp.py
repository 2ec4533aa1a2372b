"""Warp state tracking.

A warp is an **index cursor over a packed trace stream** (see
:class:`~repro.workloads.arena.PackedTraceArena`) plus the
scoreboard-ish state the SM needs: when it may issue next
(``ready_at``), how many load transactions it is blocked on
(``outstanding``), and lifetime counters.  The SM's issue path reads
the columnar op buffers directly through the cursor fields
(``op_kind``/``op_pc``/``op_count``/``txn_off``/``txns``/``op_index``/
``op_end``), so no ``WarpInstruction`` object exists on the hot loop;
:meth:`PackedTraceArena.instructions` is the object-level view of a
warp's stream.

GPU warps are never context-switched out (their registers stay resident,
Section II-A), so a warp here lives from construction to stream
exhaustion.  The ``done`` flag flips only when the SM's issue attempt
*consults* the exhausted cursor -- not eagerly at construction -- so an
empty stream costs its warp one issue attempt, as the lazy-iterator warp
this replaced did (the schedule is pinned by golden parity).
"""

from __future__ import annotations

from repro.workloads.arena import PackedTraceArena

__all__ = [
    "Warp",
]


class Warp:
    """One warp's execution state within an SM: warp *warp_id* of SM
    *sm_id*, bound to its slice of the shared *arena*."""

    __slots__ = (
        "warp_id",
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
        self, warp_id: int, arena: PackedTraceArena, sm_id: int
    ) -> None:
        self.warp_id = warp_id
        self.op_kind = arena.op_kind
        self.op_pc = arena.op_pc
        self.op_count = arena.op_count
        self.txn_off = arena.txn_off
        self.txns = arena.txns
        self.op_index, self.op_end = arena.warp_span(sm_id, warp_id)
        self.ready_at = 0
        self.outstanding = 0
        self.done = False
        self.instructions_issued = 0
        self.memory_instructions = 0

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

    def complete_transaction_at(self, ready_cycle: int) -> bool:
        """Retire one pending load whose data arrives at *ready_cycle*.

        The LSU retires transactions *eagerly* at issue/fill-processing
        time: the warp stays blocked until the count drains, and
        ``ready_at`` accumulates the maximum data-ready cycle so the warp
        becomes issueable exactly when its last transaction's data lands
        -- bit-identical to an event-per-transaction formulation, without
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
