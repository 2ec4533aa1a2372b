"""The FUSE heterogeneous L1D cache engine (Sections III and IV).

One engine, four paper configurations, enabled feature by feature exactly
as the evaluation builds them up (Table I):

==============  ============  ===========  ==========
configuration   non-blocking  approx FA    predictor
==============  ============  ===========  ==========
``Hybrid``      no            no           no
``Base-FUSE``   yes           no           no
``FA-FUSE``     yes           yes          no
``Dy-FUSE``     yes           yes          yes
==============  ============  ===========  ==========

* **non-blocking** adds the swap buffer (3 x 128 B registers) and the
  16-entry tag queue so the SRAM bank keeps serving while the STT-MRAM
  bank digests 5-cycle writes.  Without it, any STT-MRAM write blocks the
  entire L1D (the ``Hybrid`` behaviour the paper measures in Figure 15).
* **approx FA** reorganises the STT-MRAM bank from 256 sets x 2 ways into
  1 set x 512 ways, searched through the CBF-guided associativity
  approximation of Section III-B, with FIFO replacement.
* **predictor** routes fills and evictions through the read-level
  predictor: WM/WORO fills land in SRAM, WORM/read-intensive fills go
  straight to STT-MRAM, WORO SRAM-evictions leave for L2, and a store that
  hits STT-MRAM (a misprediction) migrates its line back to SRAM.

The engine composes the shared primitives of :mod:`repro.cache.engine`:
the SRAM bank is a pipelined :class:`~repro.cache.engine.BankPort`, the
blocking-mode STT-MRAM bank a second (write-occupying) port, the MSHR
discipline a :class:`~repro.cache.engine.MissPath`, and lines leaving
the L1D flow through a :class:`~repro.cache.engine.WritebackSink` that
also scores the read-level predictor (Figure 16).  What remains below
is purely FUSE: probe order, swap buffer + tag queue, the CBF-guided
search, migrations, and the destination arbitration.

Consistency invariant: a block lives in **at most one** of {SRAM bank,
swap buffer + STT tags, STT bank} at any time -- the paper's "only single
data copy exists in either SRAM or STT-MRAM".  While a line is parked in
the swap buffer its tag is already installed in the STT tag array and the
probe order (SRAM, swap buffer, STT) keeps the freshest copy visible; the
integration tests assert the single-copy invariant after every operation.

Retry replay (docs/performance.md): a rejection here mutates nothing but
counters, so the engine declares :meth:`FuseCache._replay_rejection`.
Four rejection sites depend on the clock -- the Hybrid whole-cache gate,
a full tag queue on an STT read hit, and a full swap buffer or tag queue
behind an SRAM eviction -- and each records the cycle its hazard lifts;
every other rejection lifts only with a new epoch.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.engine import BankPort, MissPath, WritebackSink
from repro.cache.interface import (
    NEVER,
    RETRY_INTERVAL,
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
    RejectionDelta,
)
from repro.cache.mshr import MSHR
from repro.cache.request import MemoryRequest
from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine, TagArray, sets_for
from repro.core.approx_assoc import TAG_COMPARATORS, ApproximateAssociativeArray
from repro.core.arbitration import Arbiter, ArbiterDecision, Destination
from repro.core.factory import FuseFeatures
from repro.core.read_level_predictor import ReadLevel, ReadLevelPredictor
from repro.core.swap_buffer import SwapBuffer
from repro.core.tag_queue import TagQueue

__all__ = ["FuseCache"]

_HIT = AccessOutcome.HIT
_MISS = AccessOutcome.MISS
#: :meth:`FuseCache._plan_sram_eviction`'s "structural hazard" verdict
_HAZARD = object()


class FuseCache(L1DCacheModel):
    """Heterogeneous SRAM + STT-MRAM L1D cache.

    Args:
        sram_kb / sram_assoc: SRAM bank geometry.
        stt_kb: STT-MRAM bank capacity.
        stt_assoc: ways per set when *not* approximated.
        features: which FUSE mechanisms are enabled.
        swap_entries: swap-buffer registers.
        tag_queue_capacity: pending STT operations.
        num_cbfs / cbf_counters / cbf_hashes: approximation parameters.
        exact_fa: price STT tag search as an ideal fully-associative
            lookup (Figure 7b's comparison baseline).
        unused_threshold: the read-level predictor's WORO threshold
            (used when the predictor feature is on).
        mshr_entries / mshr_max_merge / name: as for every L1D model.

    The paper's values for each live in
    :func:`repro.core.factory.l1d_config`; bank timing follows from the
    technology (:data:`~repro.cache.engine.bank.TIMING`).
    """

    def __init__(
        self,
        sram_kb: int,
        sram_assoc: int,
        stt_kb: int,
        stt_assoc: int,
        features: FuseFeatures,
        swap_entries: int = 3,
        tag_queue_capacity: int = 16,
        num_cbfs: int = 128,
        cbf_counters: int = 16,
        cbf_hashes: int = 3,
        exact_fa: bool = False,
        mshr_entries: int = 32,
        mshr_max_merge: int = 8,
        unused_threshold: int = 14,
        name: str = "Dy-FUSE",
    ) -> None:
        super().__init__()
        self.name = name
        self.features = features

        self.sram = TagArray(sets_for(sram_kb, sram_assoc), sram_assoc, "lru")

        if features.approx_assoc:
            stt_lines = sets_for(stt_kb, 1)
            self.stt = TagArray(1, stt_lines, "fifo")
            self.approx: Optional[ApproximateAssociativeArray] = (
                ApproximateAssociativeArray(
                    num_ways=stt_lines,
                    num_cbfs=min(num_cbfs,
                                 max(1, stt_lines // TAG_COMPARATORS)),
                    num_hashes=cbf_hashes,
                    cbf_counters=cbf_counters,
                    exact=exact_fa,
                )
            )
        else:
            self.stt = TagArray(sets_for(stt_kb, stt_assoc), stt_assoc, "fifo")
            self.approx = None

        self.mshr = MSHR(mshr_entries, mshr_max_merge)
        self.miss_path = MissPath(self.mshr, self.stats)

        #: the SRAM bank is fully pipelined
        self.sram_port = BankPort(self.stats, "sram")
        #: blocking-mode (Hybrid) STT bank: writes occupy it end to end.
        #: Event counting stays with the routing paths -- FUSE charges
        #: ``stt_reads``/``stt_writes`` per decision, not per bank op.
        self.stt_port = BankPort(self.stats, "stt", count_events=False)
        self.stt_read_latency = self.stt_port.read_latency
        self.stt_write_latency = self.stt_port.write_latency

        if features.use_predictor:
            self.predictor = ReadLevelPredictor(unused_threshold)
            self._observe = self.predictor.observe
        else:
            self.predictor = None
        self.arbiter = Arbiter(self.predictor)
        #: lines leaving the L1D for L2 also score the predictor (Fig. 16)
        self.l2_sink = WritebackSink(
            self.stats, leaves_cache=True,
            scorer=self._score_departure if self.predictor else None,
        )
        self._non_blocking = features.non_blocking

        if features.non_blocking:
            self.swap = SwapBuffer(swap_entries)
            self.tag_queue = TagQueue(capacity=tag_queue_capacity)
        else:
            self.swap = SwapBuffer(0)
            self.tag_queue = TagQueue(capacity=1)

        self._cache_busy_until = 0    # blocking mode: whole-cache gate
        #: fill-time predicted levels keyed by block, applied at fill
        self._pending_levels: dict = {}

        # retry replay: the deltas of the clock-bounded rejections, and
        # the notes a rejection site leaves for _replay_rejection
        stats = self.stats
        lookup = self._lookup_rejection
        stall = (stats, "stt_write_stall_cycles", RETRY_INTERVAL)
        self._gate_rejection: RejectionDelta = (
            stall, (stats, "bank_wait_cycles", RETRY_INTERVAL),
            (stats, "reservation_fails", 1),
        )
        self._queue_full_rejection: RejectionDelta = lookup + (
            (stats, "tag_queue_full_events", 1), stall,
        )
        self._swap_full_rejection: RejectionDelta = lookup + (
            (stats, "swap_buffer_full_events", 1), stall,
        )
        self._fail_until = NEVER
        self._fail_delta = lookup
        #: the latest approximated tag search (every rejection past the
        #: gate follows one in the same access)
        self._search = None

    # ==================================================================
    # predictor scoring
    @staticmethod
    def _score_departure(stats: CacheStats, line: CacheLine) -> None:
        """Figure 16 accounting when a line leaves the L1D for L2 (or is
        still resident at the end of the run).  Static, so the L2 sink
        holds no reference back to the cache."""
        verdict = ReadLevelPredictor.score_eviction(
            line.predicted_level, line.writes_observed
        )
        if verdict == "true":
            stats.pred_true += 1
        elif verdict == "false":
            stats.pred_false += 1
        else:
            stats.pred_neutral += 1

    # ==================================================================
    # structural-hazard pre-check (check-then-commit)
    def _plan_sram_eviction(self, block_addr: int, cycle: int):
        """Can the SRAM bank absorb a reservation for *block_addr* now?

        Returns :data:`_HAZARD` when a structural hazard forbids it, None
        when a free way takes the block (nothing is displaced), and
        otherwise the arbiter's decision for the victim line, which
        :meth:`_handle_sram_eviction` then commits.  Must stay in lockstep
        with that commit: same victim, same destination.
        """
        can, victim = self.sram.peek_victim(block_addr)
        if not can:
            return _HAZARD
        if victim is None:
            return None  # free way: no eviction at all
        decision = self.arbiter.eviction_destination(victim.fill_pc)
        if decision.destination is Destination.L2:
            return decision  # leaves the cache; nothing on-chip to arrange
        # destination STT: needs a swap-buffer register and a queue slot
        if self._non_blocking:
            if self.swap.is_full(cycle):
                self.stats.swap_buffer_full_events += 1
                self.stats.stt_write_stall_cycles += RETRY_INTERVAL
                release = self.swap.next_release(cycle)
                self._fail_until = NEVER if release is None else release
                self._fail_delta = self._swap_full_rejection
                return _HAZARD
            if self.tag_queue.is_full(cycle):
                self.stats.tag_queue_full_events += 1
                self.stats.stt_write_stall_cycles += RETRY_INTERVAL
                self._fail_until = self.tag_queue.head_completion(cycle)
                self._fail_delta = self._queue_full_rejection
                return _HAZARD
        if not self.stt.can_reserve(victim.block_addr):
            return _HAZARD
        return decision

    # ==================================================================
    # eviction / migration machinery
    def _handle_sram_eviction(
        self, evicted: CacheLine, cycle: int, decision: ArbiterDecision
    ) -> Tuple[int, ...]:
        """Route a line displaced from SRAM (Figure 9, eviction leg).

        *decision* is the plan :meth:`_plan_sram_eviction` made for this
        line, which also guaranteed the resources; this method commits
        the move.
        """
        if decision.destination is Destination.L2:
            return self.l2_sink.evict(evicted)

        # SRAM -> STT migration.
        stats = self.stats
        stats.migrations_sram_to_stt += 1
        stats.stt_writes += 1
        block_addr = evicted.block_addr
        if self._non_blocking:
            completion = self.tag_queue.enqueue("migrate", cycle)
            self.swap.stage(block_addr, cycle, release_cycle=completion)
        else:
            # Hybrid: the STT write blocks the whole cache.
            start = max(cycle, self.stt_port.busy_until)
            completion = start + self.stt_write_latency
            self.stt_port.busy_until = completion
            self._cache_busy_until = max(self._cache_busy_until, completion)
            stats.stt_write_stall_cycles += completion - cycle

        # install into the STT tag array (the data write is priced above)
        stt = self.stt
        set_idx, way, displaced = stt.install(
            block_addr, cycle, dirty=evicted.dirty, fill_pc=evicted.fill_pc,
            predicted_level=evicted.predicted_level,
        )
        line = stt.line(set_idx, way)
        line.writes_observed = evicted.writes_observed
        line.reads_observed = evicted.reads_observed
        writebacks: Tuple[int, ...] = ()
        approx = self.approx
        if displaced is not None:
            if approx is not None:
                approx.note_evict(displaced.block_addr)
            writebacks = self.l2_sink.evict(displaced)
        if approx is not None:
            approx.note_install(block_addr, way)
        return writebacks

    # ==================================================================
    def _access_impl(self, request: MemoryRequest, cycle: int) -> AccessResult:
        block = request.block_addr
        stats = self.stats

        # Blocking mode (Hybrid): while an STT-MRAM write is in flight the
        # L1D cannot accept requests at all -- the access is rejected and
        # the SM's pipeline stalls (Section IV-A's motivation for the swap
        # buffer and tag queue).
        if not self._non_blocking and cycle < self._cache_busy_until:
            gate_wait = min(self._cache_busy_until - cycle, RETRY_INTERVAL)
            stats.stt_write_stall_cycles += gate_wait
            stats.bank_wait_cycles += gate_wait
            # a retry pays the same wait while a full interval remains
            self._fail_until = self._cache_busy_until - RETRY_INTERVAL + 1
            self._fail_delta = self._gate_rejection
            return self.miss_path.reject()

        stats.tag_lookups += 1
        is_write = request.is_write

        # ---- 1. SRAM bank -------------------------------------------------
        hit = self.sram.find(block)
        if hit is not None:
            stats.hits += 1
            stats.sram_hits += 1
            self.sram.touch(hit[0], hit[1], is_write)
            if is_write:
                stats.write_hits += 1
                ready = self.sram_port.write(cycle)
            else:
                stats.read_hits += 1
                ready = self.sram_port.read(cycle)
            return AccessResult(_HIT, ready, (), block)

        # ---- 2. swap buffer ----------------------------------------------
        if self._non_blocking and self.swap.contains(block, cycle):
            stats.hits += 1
            stats.swap_buffer_hits += 1
            if is_write:
                stats.write_hits += 1
                # keep the (already installed) STT copy's metadata honest
                hit = self.stt.find(block)
                if hit is not None:
                    self.stt.touch(hit[0], hit[1], True)
            else:
                stats.read_hits += 1
            return AccessResult(_HIT, cycle + 1, (), block)

        # ---- 3. STT-MRAM bank ---------------------------------------------
        # The tag array is authoritative (lines parked behind a
        # reservation never hit); the approximation prices the search and
        # records CBF statistics.
        hit = self.stt.find(block)
        approx = self.approx
        if approx is None:
            search_cycles = 1
        else:
            result = self._search = approx.search(block)
            stats.tag_searches += 1
            stats.tag_search_iterations += result.iterations
            stats.cbf_tests += 1
            stats.cbf_false_positives += result.false_positives
            search_cycles = result.cycles
            if search_cycles > 1:
                stats.tag_search_stall_cycles += search_cycles - 1
        if hit is not None:
            return self._serve_stt_hit(request, cycle, hit, search_cycles)

        # ---- 4. miss path ---------------------------------------------------
        mshr = self.mshr
        entry = mshr.get(block)
        if entry is not None:
            return self.miss_path.merge(entry, request, block, cycle)
        if mshr.occupancy() >= mshr.num_entries:
            return self.miss_path.reject()

        decision = self.arbiter.fill_destination(request.pc)
        writebacks: Tuple[int, ...] = ()
        if decision.destination is Destination.SRAM:
            plan = self._plan_sram_eviction(block, cycle)
            if plan is _HAZARD:
                return self.miss_path.reject()
            _, _, evicted = self.sram.reserve(block, cycle)
            if evicted is not None:
                writebacks = self._handle_sram_eviction(evicted, cycle, plan)
            destination = "sram"
        else:
            if not self.stt.can_reserve(block):
                return self.miss_path.reject()
            _, _, evicted = self.stt.reserve(block, cycle)
            if evicted is not None:
                if approx is not None:
                    approx.note_evict(evicted.block_addr)
                writebacks = self.l2_sink.evict(evicted)
            destination = "stt"

        mshr.allocate(block, request, destination, cycle)
        stats.misses += 1
        # Remember the level that motivated the placement; scored on
        # eviction (Figure 16).
        self._pending_levels[block] = decision.level
        return AccessResult(_MISS, cycle, writebacks, block)

    # ------------------------------------------------------------------
    def _replay_rejection(self) -> Tuple[int, RejectionDelta]:
        """Retry replay: describe the rejection :meth:`_access_impl` just
        returned -- the cycle its clock-bounded hazard lifts (the site's
        note, :data:`NEVER` otherwise) and every counter it bumped."""
        until, delta = self._fail_until, self._fail_delta
        self._fail_until, self._fail_delta = NEVER, self._lookup_rejection
        search = self._search
        if search is not None and delta is not self._gate_rejection:
            stats = self.stats
            delta += (
                (stats, "tag_searches", 1),
                (stats, "cbf_tests", 1),
                (stats, "tag_search_iterations", search.iterations),
            )
            false_positives = search.false_positives
            if false_positives:
                delta += (
                    (stats, "cbf_false_positives", false_positives),
                )
            if search.cycles > 1:
                delta += (
                    (stats, "tag_search_stall_cycles", search.cycles - 1),
                )
        return until, delta

    # ------------------------------------------------------------------
    def _serve_stt_hit(
        self,
        request: MemoryRequest,
        cycle: int,
        hit: Tuple[int, int],
        search_cycles: int,
    ) -> AccessResult:
        block = request.block_addr
        set_idx, way = hit
        stats = self.stats

        if not request.is_write:
            # Read hit: ride the tag queue (or the blocking bank).
            if self._non_blocking:
                tag_queue = self.tag_queue
                if tag_queue.is_full(cycle):
                    stats.tag_queue_full_events += 1
                    stats.stt_write_stall_cycles += RETRY_INTERVAL
                    self._fail_until = tag_queue.head_completion(cycle)
                    self._fail_delta = self._queue_full_rejection
                    return self.miss_path.reject()
                ready = tag_queue.enqueue(
                    "read", cycle, extra_search_cycles=search_cycles - 1
                )
            else:
                ready = self.stt_port.read(cycle, extra=search_cycles - 1)
            stats.hits += 1
            stats.stt_hits += 1
            stats.read_hits += 1
            stats.stt_reads += 1
            self.stt.touch(set_idx, way, False)
            return AccessResult(_HIT, ready, (), block)

        # Store hit on STT-MRAM.
        if self.arbiter.migrate_on_stt_write_hit():
            return self._migrate_stt_to_sram(request, cycle, search_cycles)

        # Write in place: the queue holds no payloads, so flush it first
        # (Section IV-A), then pay the 5-cycle write.
        if self._non_blocking:
            drain_done = self.tag_queue.flush(cycle)
            stats.tag_queue_flushes += 1
            stats.stt_write_stall_cycles += drain_done - cycle
            ready = drain_done + search_cycles - 1 + self.stt_write_latency
            self.tag_queue.occupy_until(ready)
        else:
            ready = self.stt_port.write(cycle, extra=search_cycles - 1)
            self._cache_busy_until = max(self._cache_busy_until, ready)
        stats.hits += 1
        stats.stt_hits += 1
        stats.write_hits += 1
        stats.stt_writes += 1
        self.stt.touch(set_idx, way, True)
        return AccessResult(_HIT, ready, (), block)

    # ------------------------------------------------------------------
    def _migrate_stt_to_sram(
        self, request: MemoryRequest, cycle: int, search_cycles: int
    ) -> AccessResult:
        """Dy-FUSE store-hit-on-STT misprediction path (Section III-A):
        read the line out of STT-MRAM, invalidate it there, install it in
        SRAM and let SRAM serve the store."""
        block = request.block_addr
        stats = self.stats

        # The SRAM side must be able to take the line first.
        plan = self._plan_sram_eviction(block, cycle)
        if plan is _HAZARD:
            return self.miss_path.reject()

        drain_done = self.tag_queue.flush(cycle)
        stats.tag_queue_flushes += 1
        stats.stt_write_stall_cycles += drain_done - cycle

        departed = self.stt.invalidate(block)
        if departed is None:  # pragma: no cover - guarded by caller
            raise RuntimeError("migration source vanished")
        if self.approx is not None:
            self.approx.note_evict(block)
        stats.stt_reads += 1
        stats.migrations_stt_to_sram += 1
        read_done = drain_done + search_cycles - 1 + self.stt_read_latency
        self.tag_queue.occupy_until(read_done)

        set_idx, way, displaced = self.sram.install(
            block,
            cycle,
            dirty=True,  # the store makes it dirty immediately
            fill_pc=departed.fill_pc,
            predicted_level=ReadLevel.WM,
        )
        line = self.sram.line(set_idx, way)
        line.writes_observed = departed.writes_observed + 1
        line.reads_observed = departed.reads_observed
        writebacks: Tuple[int, ...] = ()
        if displaced is not None:
            writebacks = self._handle_sram_eviction(displaced, cycle, plan)

        ready = self.sram_port.write(read_done)
        stats.hits += 1
        stats.stt_hits += 1
        stats.write_hits += 1
        return AccessResult(_HIT, ready, writebacks, block)

    # ------------------------------------------------------------------
    def fill(self, block_addr: int, cycle: int) -> FillResult:
        entry = self.mshr.release(block_addr)
        level = self._pending_levels.pop(block_addr, None)
        requests = entry.requests
        primary = requests[0]

        if entry.destination == "sram":
            tags = self.sram
            set_idx, way = tags.fill(
                block_addr, cycle, primary.is_write, primary.pc, level
            )
            ready = self.sram_port.write(cycle)
        else:
            tags = self.stt
            set_idx, way = tags.fill(
                block_addr, cycle, primary.is_write, primary.pc, level
            )
            if self.approx is not None:
                self.approx.note_install(block_addr, way)
            self.stats.stt_writes += 1
            if self._non_blocking:
                ready = self.tag_queue.enqueue("fill", cycle, force=True)
            else:
                start = max(cycle, self.stt_port.busy_until)
                ready = start + self.stt_write_latency
                self.stt_port.busy_until = ready
                self._cache_busy_until = max(self._cache_busy_until, ready)

        if len(requests) > 1:
            MissPath.apply_merged(entry, tags.line(set_idx, way))

        self.stats.fills += 1
        return FillResult(ready, requests, ())

    # ------------------------------------------------------------------
    def flush_metadata(self) -> None:
        """Score predictor decisions for lines still resident at the end
        of the run (they never got an eviction to be scored on)."""
        if self.predictor is None:
            return
        stats = self.stats
        for line in self.sram.iter_valid_lines():
            self._score_departure(stats, line)
        for line in self.stt.iter_valid_lines():
            self._score_departure(stats, line)

    # convenience for tests -------------------------------------------------
    def resident_in_sram(self, block_addr: int) -> bool:
        """True when *block_addr* is valid in the SRAM bank."""
        return self.sram.lookup(block_addr)[1] is not None

    def resident_in_stt(self, block_addr: int) -> bool:
        """True when *block_addr* is valid in the STT bank."""
        return self.stt.lookup(block_addr)[1] is not None
