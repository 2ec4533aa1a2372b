"""Top-level GPU simulator.

A hybrid cycle/event loop (see ARCHITECTURE.md, "GPU layer"):

* while any SM has a ready warp, the clock advances one cycle at a time
  and each such SM issues at most one instruction;
* when nothing can issue, the clock jumps to the next completion event
  (memory responses, retry timers) or SM wake-up, avoiding dead
  per-cycle work while warps wait out hundred-cycle DRAM round trips.

The issue loop is *ready-set driven*: instead of polling every SM every
cycle, the simulator keeps the set of SMs that might issue now.  An SM
that reports "nothing to do" leaves the set and registers its next
possible issue cycle in a wake heap; it re-enters when that cycle
arrives or when an ``EV_WAKE`` event fires (a warp's last outstanding
load retired).  An SM whose issue port is busy when its turn comes --
a compute span, or a retry that pushed the port past a wake it had
already registered -- is not polled: it re-parks at
``port_busy_until``.  That cycle is one the loop visits anyway (the
compute warp is ready then, or the retry event fires then), so the
schedule stays bit-identical to the poll-every-SM loop this replaced
(pinned by ``tests/test_golden_parity.py``).

Events live in a typed wheel: fixed-shape heap entries tagged
``EV_FILL`` (off-chip response for a block), ``EV_RETRY`` (re-present a
rejected transaction) or ``EV_WAKE`` (a warp's last load landed).  The
SMs post them straight onto :attr:`GPUSimulator.events` and the run
loop dispatches due entries inline to the owning SM -- no per-event
callback indirection (see :data:`repro.gpu.sm.EV_FILL`).  Per-transaction
load *completions* are not events at all; the LSU retires hits eagerly.
Same-cycle entries dispatch in the order the step-by-step retry loop
posted them, even though a sleeping retry (:mod:`repro.gpu.sm`, "Retry
sleep" in docs/performance.md) never posts its intermediate steps: a
retry successor's order key is computable without them.  That needs
every fill to be posted more than ``RETRY_INTERVAL`` cycles before it
lands, which the constructor checks.

Warps consume a **packed trace arena** (columnar op/transaction buffers,
:mod:`repro.workloads.arena`): pass one via ``arena`` to replay a
pre-compiled trace with zero per-run generation cost, or pass the
classic ``warp_streams`` callable and the constructor packs it once.
Either way each :class:`~repro.gpu.warp.Warp` is an index cursor over
its slice of that one arena, and the simulation loop touches only flat
arrays.

Each SM owns a **private** L1D instance (built by the supplied factory),
mirroring the per-SM L1D caches of the real machine; the memory subsystem
(interconnect + L2 + DRAM) is shared.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Iterable, List, Optional

from repro.cache.interface import RETRY_INTERVAL, L1DCacheModel
from repro.gpu.config import GPUConfig
from repro.gpu.sm import EV_FILL, EV_RETRY, SM
from repro.gpu.stats import (
    SimulationResult,
    merge_cache_stats,
)
from repro.gpu.warp import Warp
from repro.memory.subsystem import MemorySubsystem
from repro.workloads.arena import PackedTraceArena
from repro.workloads.trace import WarpInstruction

__all__ = [
    "GPUSimulator",
]


class GPUSimulator:
    """Drives SMs, private L1Ds and the shared memory system to completion.

    Args:
        config: machine description.
        l1d_factory: zero-argument callable returning a fresh L1D model;
            called once per SM.
        warp_streams: callable ``(sm_id, warp_id) -> iterator`` producing
            each warp's instruction stream; packed into a private arena
            at construction.  Ignored when *arena* is given.
        warps_per_sm: active warps per SM (defaults to the machine limit).
        max_cycles: safety valve; the run aborts (with a clear error)
            if the workload has not drained by then.
        arena: a pre-packed trace arena to replay (its shape must match
            the machine being built); the compile-once path used by
            :func:`~repro.engine.spec.execute_spec`.
    """

    def __init__(
        self,
        config: GPUConfig,
        l1d_factory: Callable[[], L1DCacheModel],
        warp_streams: Optional[
            Callable[[int, int], Iterable[WarpInstruction]]
        ] = None,
        warps_per_sm: Optional[int] = None,
        max_cycles: int = 50_000_000,
        arena: Optional[PackedTraceArena] = None,
    ) -> None:
        self.config = config
        self.memory = MemorySubsystem(config)
        if self.memory.min_read_latency <= RETRY_INTERVAL:
            # a fill could then tie a retry successor on both its cycle
            # and its post cycle, which the order key cannot break
            raise ValueError(
                f"minimum read latency {self.memory.min_read_latency} "
                f"must exceed RETRY_INTERVAL={RETRY_INTERVAL}"
            )
        self.max_cycles = max_cycles
        #: the event wheel: a heap of ``(cycle, post, order, tag, ...)``
        #: entries the SMs post (layout in :mod:`repro.gpu.sm`);
        #: ``(post, order)`` breaks same-cycle ties in the order the
        #: step-by-step retry loop would have posted them
        self.events: List = []
        self.next_event_seq = itertools.count(1).__next__
        self.cycle = 0

        active_warps = warps_per_sm or config.warps_per_sm
        if active_warps > config.warps_per_sm:
            raise ValueError(
                f"{active_warps} warps exceed the machine limit "
                f"{config.warps_per_sm}"
            )
        if arena is None:
            if warp_streams is None:
                raise ValueError("need either warp_streams or arena")
            arena = PackedTraceArena.from_streams(
                "<adhoc>", config.num_sms, active_warps, warp_streams
            )
        elif (arena.num_sms != config.num_sms
              or arena.warps_per_sm != active_warps):
            raise ValueError(
                f"arena shape {arena.num_sms}x{arena.warps_per_sm} does "
                f"not match the machine ({config.num_sms} SMs x "
                f"{active_warps} warps)"
            )
        self.arena = arena
        self.sms: List[SM] = []
        for sm_id in range(config.num_sms):
            warps = [
                Warp(warp_id, arena, sm_id)
                for warp_id in range(active_warps)
            ]
            self.sms.append(
                SM(
                    sm_id=sm_id,
                    l1d=l1d_factory(),
                    warps=warps,
                    simulator=self,
                )
            )

    # ------------------------------------------------------------------
    def run(self, workload_name: str = "", config_name: str = "") -> SimulationResult:
        """Simulate until every warp drains; returns the result bundle.

        Raises:
            RuntimeError: when ``max_cycles`` elapses first (misconfigured
                workload or a genuine deadlock -- the error message says
                which SMs were stuck).
        """
        sms = self.sms
        events = self.events
        #: SM ids that might issue at the current cycle
        active = set(range(len(sms)))
        wake_heap: List = []
        #: SM ids woken by an EV_WAKE this cycle
        wakeups: set = set()
        max_cycles = self.max_cycles

        while True:
            cycle = self.cycle
            # dispatch due events (entries posted meanwhile for this very
            # cycle -- a wake-up at the current cycle -- run in this pass)
            while events and events[0][0] <= cycle:
                _, _, _, kind, target, a, b, c = heappop(events)
                if kind == EV_FILL:
                    target._handle_fill(a, cycle)
                elif kind == EV_RETRY:
                    target._present(a, b, cycle, c, cycle)
                else:  # EV_WAKE: an SM regained a ready warp
                    wakeups.add(target)
                    active.add(target)

            while wake_heap and wake_heap[0][0] <= cycle:
                active.add(heappop(wake_heap)[1])

            issued_any = False
            if active:
                for sm_id in sorted(active):
                    sm = sms[sm_id]
                    busy_until = sm.port_busy_until
                    if busy_until > cycle:
                        # a compute span or a retry holds the issue
                        # port: re-park at the cycle it frees instead of
                        # polling (a cycle the loop visits anyway, see
                        # the module docstring)
                        active.discard(sm_id)
                        heappush(wake_heap, (busy_until, sm_id))
                    elif sm.try_issue(cycle):
                        issued_any = True
                    else:
                        active.discard(sm_id)
                        when = sm.next_event_time(cycle)
                        if when is not None:
                            heappush(wake_heap, (when, sm_id))

            if issued_any or wakeups:
                wakeups.clear()
                self.cycle = cycle + 1
            else:
                nxt: Optional[int] = events[0][0] if events else None
                if wake_heap and (nxt is None or wake_heap[0][0] < nxt):
                    nxt = wake_heap[0][0]
                if nxt is None:
                    if all(sm.done for sm in sms):
                        break
                    stuck = [sm.sm_id for sm in sms if not sm.done]
                    raise RuntimeError(
                        f"deadlock at cycle {cycle}: SMs {stuck} have "
                        "blocked warps but no pending events"
                    )
                self.cycle = nxt if nxt > cycle else cycle + 1

            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"exceeded max_cycles={self.max_cycles}; aborting"
                )

        # the loop only breaks once the event wheel is empty
        for sm in sms:
            sm.l1d.flush_metadata()

        return SimulationResult(
            config_name=config_name,
            workload_name=workload_name,
            cycles=self.cycle,
            instructions=sum(sm.instructions for sm in sms),
            l1d=merge_cache_stats(sm.l1d.stats for sm in sms),
            memory=self.memory.finalize_stats(),
            issue_busy_cycles=sum(sm.issue_busy_cycles for sm in sms),
            num_sms=len(sms),
            load_transactions=sum(sm.load_transactions for sm in sms),
            store_transactions=sum(sm.store_transactions for sm in sms),
            retries=sum(sm.retries for sm in sms),
        )
