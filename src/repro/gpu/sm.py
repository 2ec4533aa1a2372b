"""Streaming multiprocessor model.

Each SM owns a private L1D, up to 48 warps and one issue port that
issues at most one instruction per cycle (the in-order shader cores of
Section II-A).  Per cycle the SM picks one ready warp
greedy-then-oldest (GTO, GPGPU-Sim's default): it keeps issuing from
the warp it holds while that warp stays ready, else takes the lowest-id
ready warp.  The issue
path reads the warp's **packed trace cursor** directly (columnar
kind/pc/count buffers plus the shared transaction pool -- see
:mod:`repro.workloads.arena`), so no ``WarpInstruction`` object exists
on the hot path:

* a **compute block** occupies the issue port for ``count`` cycles and
  credits ``count`` instructions -- identical IPC accounting to issuing
  the instructions one by one, at O(1) simulation cost;
* a **memory instruction** hands its coalesced transactions to the LSU
  as one batch read straight from the arena's transaction pool.  The
  LSU still models one L1D presentation per cycle (transaction ``k``
  arrives at ``cycle + k``), but transactions that hit retire *eagerly*
  through :meth:`~repro.gpu.warp.Warp.complete_transaction_at` -- the
  warp's wake-up cycle accumulates the latest data-ready cycle instead
  of one scheduler event per transaction.  Loads block the warp until
  every transaction's data returns; stores retire once the L1D accepts
  them (write-back semantics -- the store's cost surfaces as bank
  occupancy and write-backs, not as warp stall).  Only genuinely
  asynchronous work -- off-chip fills and hazard retries -- goes
  through the event wheel.

The LSU front-end is **allocation-free on the hit path**:
:class:`~repro.cache.request.MemoryRequest` objects are pooled per SM
and recycled as soon as the cache is done with them (hits and bypasses
immediately; miss-path requests when their fill's completion list is
processed).  The pool never shrinks below the SM's natural outstanding
depth, so steady state creates no request objects at all.

``RESERVATION_FAIL`` results retry after ``RETRY_INTERVAL`` cycles, which
is how structural hazards (MSHR full, tag-queue full, swap-buffer full,
all-ways-reserved) convert into the stall cycles of Figure 15.  Every
retry re-enters :meth:`SM._present` and calls the L1D's ``access``; a
retry the cache can answer without walking its arrays is replayed
there (:class:`~repro.cache.interface.L1DCacheModel`), so the SM counts
``retries`` and the cache ``reservation_fails``, one each per attempt.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, List, Optional

from repro.cache.interface import (
    REJECTED,
    RETRY_INTERVAL,
    AccessOutcome,
    L1DCacheModel,
)
from repro.cache.request import AccessType, MemoryRequest
from repro.gpu.warp import Warp
from repro.workloads.trace import COMPUTE, LOAD

__all__ = [
    "EV_FILL", "EV_RETRY", "EV_WAKE", "MAX_RETRIES", "SM",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.simulator import GPUSimulator

#: Retries per transaction before the simulator declares livelock.
MAX_RETRIES = 100_000

#: Event-wheel entry tags.  The SM posts fixed-shape entries
#: ``(cycle, seq, tag, target, a, b, c)`` straight onto the simulator's
#: heap (:attr:`GPUSimulator.events`), which dispatches them by tag:
#:
#: * ``EV_FILL``  -- target SM, ``a`` the block whose off-chip response
#:   arrives;
#: * ``EV_RETRY`` -- target SM, ``a`` the request a hazard rejected,
#:   ``b`` its waiting warp, ``c`` the attempt number;
#: * ``EV_WAKE``  -- target SM id: a warp's last outstanding load lands.
#:
#: An entry's cycle is never before the simulator's current cycle (fills
#: and retries lie in the future by construction; wake-ups are clamped).
EV_FILL = 0
EV_RETRY = 1
EV_WAKE = 2

_HIT = AccessOutcome.HIT
_HIT_PENDING = AccessOutcome.HIT_PENDING
_MISS = AccessOutcome.MISS
_MISS_BYPASS = AccessOutcome.MISS_BYPASS


class SM:
    """One streaming multiprocessor plus its private L1D.

    The SM takes the simulator's memory subsystem, event heap and event
    sequence counter at construction but holds no reference to the
    simulator itself, which lists the SM in ``sms``: the current cycle
    reaches it as an argument.  A finished machine is then an acyclic
    graph that reference counting frees at once, leaving nothing for
    the cyclic garbage collector (``tests/test_lifetime.py``).
    """

    def __init__(
        self,
        sm_id: int,
        l1d: L1DCacheModel,
        warps: List[Warp],
        simulator: "GPUSimulator",
    ) -> None:
        self.sm_id = sm_id
        self.l1d = l1d
        self.warps = warps
        #: the warp GTO keeps issuing from while it stays ready
        self._held: Optional[Warp] = None
        self.memory = simulator.memory
        self._events = simulator.events
        self._next_seq = simulator.next_event_seq
        self.port_busy_until = 0
        self.issue_busy_cycles = 0
        self.lsu_stall_cycles = 0
        self.instructions = 0
        self.load_transactions = 0
        self.store_transactions = 0
        self.retries = 0
        self._done = False
        #: recycled MemoryRequest objects (hit-path allocation freedom);
        #: per-SM so ``sm_id`` never needs rewriting on reuse
        self._request_pool: List[MemoryRequest] = []

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True when every warp has drained and nothing is outstanding."""
        if self._done:
            return True
        self._done = all(
            warp.done and not warp.blocked for warp in self.warps
        )
        return self._done

    def next_event_time(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this SM could issue.

        None when every remaining warp is blocked on memory (an event will
        wake them) or the SM is done.  One fused pass determines both
        (the :attr:`done` property would walk the warps a second time).
        Nothing issues before the *floor* -- the later of *cycle* and the
        issue port's free cycle -- so the pass stops at the first warp
        that is ready by then (the common case: a busy issue port).
        """
        if self._done:
            return None
        floor = self.port_busy_until
        if floor < cycle:
            floor = cycle
        best: Optional[int] = None
        alive = False
        for warp in self.warps:
            outstanding = warp.outstanding
            if warp.done:
                if outstanding:
                    alive = True  # drained stream, data still in flight
                continue
            alive = True
            if outstanding == 0:
                ready_at = warp.ready_at
                if ready_at <= floor:
                    return floor
                if best is None or ready_at < best:
                    best = ready_at
        if not alive:
            self._done = True
        return best

    # ------------------------------------------------------------------
    def try_issue(self, cycle: int) -> bool:
        """Issue at most one instruction; True when something issued."""
        if cycle < self.port_busy_until:
            return False
        # greedy: stick with the held warp while it stays ready; oldest:
        # else the first ready warp, ``warps`` being ordered by warp id
        warp = self._held
        if (
            warp is None or warp.done or warp.outstanding != 0
            or warp.ready_at > cycle
        ):
            for warp in self.warps:
                if (
                    not warp.done and warp.outstanding == 0
                    and warp.ready_at <= cycle
                ):
                    self._held = warp
                    break
            else:
                return False
        index = warp.op_index
        if index >= warp.op_end:
            # exhausted cursor consulted for the first time: the warp
            # retires here, exactly like the lazy stream's StopIteration
            warp.done = True
            return False
        warp.op_index = index + 1
        kind = warp.op_kind[index]
        if kind == COMPUTE:
            span = warp.op_count[index]
            self.port_busy_until = cycle + span
            self.issue_busy_cycles += span
            warp.ready_at = cycle + span
            warp.instructions_issued += span
            self.instructions += span
        else:
            self._issue_memory(warp, kind, index, cycle)
        return True

    def _issue_memory(
        self, warp: Warp, kind: int, index: int, cycle: int
    ) -> None:
        self.port_busy_until = cycle + 1
        self.issue_busy_cycles += 1
        warp.instructions_issued += 1
        warp.memory_instructions += 1
        self.instructions += 1

        txn_off = warp.txn_off
        start = txn_off[index]
        end = txn_off[index + 1]
        if start == end:
            warp.ready_at = cycle + 1
            return
        count = end - start
        if kind == LOAD:
            access_type = AccessType.LOAD
            is_write = False
            waiting_warp: Optional[Warp] = warp
            warp.outstanding += count
            self.load_transactions += count
        else:
            # stores retire at issue; bank pressure is modelled in the cache
            access_type = AccessType.STORE
            is_write = True
            waiting_warp = None
            warp.ready_at = cycle + 1
            self.store_transactions += count

        # batch the whole coalesced access: the LSU presents one
        # transaction per cycle, hits retire eagerly, and only misses and
        # hazard retries touch the event wheel.  Transactions are read as
        # a slice of the arena's shared address pool.
        pc = warp.op_pc[index]
        warp_id = warp.warp_id
        pool = self._request_pool
        present = self._present
        arrival = cycle
        for block_addr in warp.txns[start:end]:
            if pool:
                request = pool.pop()
                request.address = block_addr << 7
                request.block_addr = block_addr
                request.access_type = access_type
                request.is_write = is_write
                request.pc = pc
                request.warp_id = warp_id
                request.issue_cycle = arrival
            else:
                request = MemoryRequest(
                    address=block_addr << 7,
                    access_type=access_type,
                    pc=pc,
                    sm_id=self.sm_id,
                    warp_id=warp_id,
                    issue_cycle=arrival,
                )
            present(request, waiting_warp, arrival, 0, cycle)
            arrival += 1

    # ------------------------------------------------------------------
    def _present(
        self,
        request: MemoryRequest,
        waiting_warp: Optional[Warp],
        cycle: int,
        attempts: int,
        now: int,
    ) -> None:
        """Present one transaction to the L1D, retrying on hazards.

        *cycle* is the transaction's arrival at the L1D; *now* is the
        simulator's current cycle (the LSU presents a coalesced batch
        one transaction per cycle, so *cycle* runs ahead of *now*).

        Requests the cache is finished with (hits and bypasses) return
        to the SM's pool here; miss-path requests stay referenced by the
        MSHR until :meth:`_handle_fill` recycles them.
        """
        if attempts > MAX_RETRIES:
            raise RuntimeError(
                f"livelock: transaction 0x{request.address:x} on SM "
                f"{self.sm_id} exceeded {MAX_RETRIES} retries"
            )
        result = self.l1d.access(request, cycle)
        if result is not REJECTED:
            for dirty_block in result.writebacks:
                self.memory.issue_writeback(dirty_block, self.sm_id, cycle)

            outcome = result.outcome
            if outcome is _HIT:
                if waiting_warp is not None and (
                    waiting_warp.complete_transaction_at(result.ready_cycle)
                ):
                    self._post_wake(waiting_warp.ready_at, now)
                self._request_pool.append(request)
                return
            if outcome is _HIT_PENDING:
                # the fill's completion list will include this request
                return
            if outcome is _MISS:
                block = request.block_addr
                heappush(self._events, (
                    self.memory.issue_read(block, self.sm_id, cycle),
                    self._next_seq(), EV_FILL, self, block, None, 0,
                ))
                return
            if outcome is _MISS_BYPASS:
                if request.is_write:
                    # a bypassed store is write traffic straight to L2
                    self.memory.issue_writeback(
                        request.block_addr, self.sm_id, cycle
                    )
                else:
                    completion = self.memory.issue_read(
                        request.block_addr, self.sm_id, cycle
                    )
                    if waiting_warp is not None and (
                        waiting_warp.complete_transaction_at(completion)
                    ):
                        self._post_wake(waiting_warp.ready_at, now)
                self._request_pool.append(request)
                return
        # RESERVATION_FAIL -- the shared REJECTED, tested first because
        # retries outnumber accepted accesses in a storm, or a custom
        # model's own rejection, which falls through the chain above.
        # The LSU cannot hand the transaction over, so the in-order
        # memory pipeline backs up and the SM's issue port stalls until
        # the retry -- this is how cache thrashing (MSHR and way
        # exhaustion) throttles the whole SM, the paper's motivating
        # pathology for the small L1-SRAM.  The request rides the retry
        # event and re-enters here, so it is not recycled yet (nor
        # changed: the L1D may replay its last rejection).
        self.retries += 1
        retry_at = cycle + RETRY_INTERVAL
        if retry_at > self.port_busy_until:
            self.port_busy_until = retry_at
        self.lsu_stall_cycles += RETRY_INTERVAL
        heappush(self._events, (
            retry_at, self._next_seq(), EV_RETRY, self, request,
            waiting_warp, attempts + 1,
        ))

    def _post_wake(self, when: int, now: int) -> None:
        """A warp's last outstanding load lands at *when*: post the wake,
        clamped to the simulator's current cycle *now*.

        One wake per warp-unblock (not one event per transaction) fires
        the simulator's ready-set update exactly when the data is usable,
        keeping the clock's advance pattern bit-identical.
        """
        heappush(self._events, (
            when if when > now else now, self._next_seq(), EV_WAKE,
            self.sm_id, None, None, 0,
        ))

    # ------------------------------------------------------------------
    def _handle_fill(self, block_addr: int, cycle: int) -> None:
        """Off-chip response arrived: fill the L1D, retire merged loads."""
        fill = self.l1d.fill(block_addr, cycle)
        for dirty_block in fill.writebacks:
            self.memory.issue_writeback(dirty_block, self.sm_id, cycle)
        ready = fill.ready_cycle
        warps = self.warps
        completed = fill.completed
        for request in completed:
            if not request.is_write:
                warp = warps[request.warp_id]
                if warp.complete_transaction_at(ready):
                    self._post_wake(warp.ready_at, cycle)
        # the MSHR entry is released; its requests (loads and stores
        # alike) are dead and return to the pool
        self._request_pool.extend(completed)
