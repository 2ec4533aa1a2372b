"""Set-associative tag array with reservation support.

The tag array is the bookkeeping heart of every cache model in this
repository.  It follows GPGPU-Sim's allocate-on-miss discipline: a miss
*reserves* a line (so the set cannot over-commit while the fill is in
flight) and the arriving fill completes the reservation.

Lines additionally record the issuing PC and per-residency read/write
counts.  Those feed two paper mechanisms:

* the read-level predictor's accuracy scoring (Figure 16) compares the
  level predicted at fill time against the writes actually observed while
  the line was resident, and
* the read-level analysis of Figure 6 is validated against the same
  counters in integration tests.

Replacement is one of the two policies Section V uses: LRU for the SRAM
bank and the set-associative baselines, FIFO for the fully-associative
STT-MRAM bank ("the circuit complexity of LRU is not affordable in a
full-associative cache").  Both order ways by a logical stamp -- a fill
stamps the way, and under LRU so does a hit -- and evict the way with
the oldest stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterator, List, Optional, Tuple

from repro.cache.request import BLOCK_SIZE

__all__ = [
    "CacheLine", "TagArray", "UNALLOCATED", "sets_for",
]


def sets_for(size_kb: int, assoc: int) -> int:
    """Sets in a *size_kb* array of *assoc*-way sets of ``BLOCK_SIZE``
    lines (``assoc=1`` gives the line count).

    Raises:
        ValueError: when the lines do not divide into *assoc*-way sets.
    """
    num_lines = size_kb * 1024 // BLOCK_SIZE
    if num_lines % assoc:
        raise ValueError(f"{size_kb}KB is not divisible into {assoc}-way sets")
    return num_lines // assoc


@dataclass(slots=True)
class CacheLine:
    """State of one cache line (one way of one set)."""

    tag: int = -1
    valid: bool = False
    dirty: bool = False
    reserved: bool = False
    #: block address stored, kept for convenience (tag encodes it already)
    block_addr: int = -1
    #: PC of the request that allocated the line (predictor bookkeeping)
    fill_pc: int = 0
    #: read-level predicted at fill time, scored on eviction (Figure 16)
    predicted_level: Optional[object] = None
    #: stores observed while resident (excludes the fill itself)
    writes_observed: int = 0
    #: loads observed while resident
    reads_observed: int = 0
    fill_cycle: int = 0


#: The line every unreserved, invalid way points at.  One object is
#: shared by every tag array and is never written: :meth:`TagArray.reserve`
#: swaps a fresh line into the way instead, so building a machine costs
#: no per-line allocation (the shared L2 alone has 6,144 ways).
UNALLOCATED = CacheLine()

#: stamp of a way holding no valid line (reserved, or never filled):
#: larger than any real stamp, so a plain minimum scan over a set's
#: stamps never picks such a way while a valid one exists
_UNSTAMPED = 1 << 62

#: associativity at which victim selection switches from a minimum scan
#: to a lazily-invalidated oldest-stamp heap per set (the 256-way FA-SRAM
#: and 512-way approximated-FA STT banks are the targets; tiny 2/4-way
#: sets scan faster than they heap)
_HEAP_ASSOC_THRESHOLD = 16


class TagArray:
    """A ``num_sets`` x ``assoc`` tag array with LRU or FIFO replacement.

    A fully-associative array is simply ``num_sets=1`` with a large
    associativity, which is exactly how the paper's FA-FUSE configures the
    STT-MRAM bank (1 set x 512 ways, Table I).

    Each way holds a line object.  Reserving a way installs a new
    :class:`CacheLine`; the line it replaces leaves the array untouched
    and is handed back as the eviction record (``reserve``,
    ``install``, ``invalidate``), so a departed line is a read-only
    snapshot nobody writes again.  Ways never reserved, and ways emptied
    by :meth:`invalidate`, point at :data:`UNALLOCATED`.

    ``replacement`` is ``"lru"`` or ``"fifo"``; anything else raises
    ValueError.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        replacement: str = "lru",
    ) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if replacement not in ("lru", "fifo"):
            raise ValueError(
                f"unknown replacement policy {replacement!r}; known: "
                "fifo, lru"
            )
        self.num_sets = num_sets
        self.assoc = assoc
        #: LRU restamps a way on every hit; FIFO only on fill
        self._lru = replacement == "lru"
        #: last stamp handed out; stamps are unique and increasing, so
        #: the oldest-stamped way is a deterministic victim
        self._tick = 0
        self._stamps: List[List[int]] = [
            [_UNSTAMPED] * assoc for _ in range(num_sets)
        ]
        #: wide sets only: per-set min-heaps of ``(stamp, way)``, pushed
        #: on every stamp and invalidated lazily -- an entry is stale once
        #: its way holds a different stamp
        self._heaps: Optional[List[list]] = (
            [[] for _ in range(num_sets)]
            if assoc >= _HEAP_ASSOC_THRESHOLD else None
        )
        self._sets: List[List[CacheLine]] = [
            [UNALLOCATED] * assoc for _ in range(num_sets)
        ]
        self._set_mask = num_sets - 1
        #: valid-block index: block_addr -> (set_idx, way); keeps lookups
        #: O(1) even for the 512-way fully-associative STT organisation
        self._index: dict = {}
        #: ``find(block_addr) -> (set_idx, way) | None``: the valid-block
        #: probe as a bound builtin, the one lookup an engine's hit path
        #: makes (no Python frame)
        self.find = self._index.get
        #: pending reservations: block_addr -> (set_idx, way); lets fills
        #: complete without scanning the set
        self._reserved_index: dict = {}
        #: per-set reserved-way counts keeping the reserve path off
        #: O(assoc) scans in the steady state (set full, none pending)
        self._reserved_count: List[int] = [0] * num_sets
        #: per-set min-heaps of free (invalid, unreserved) way indices:
        #: popping the minimum is identical to scanning the set for the
        #: first free way, without the O(assoc) walk that dominated the
        #: 512-way STT bank under migration churn (invalidate keeps
        #: punching free ways into the middle of the set)
        self._free_ways: List[List[int]] = [
            list(range(assoc)) for _ in range(num_sets)
        ]

    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        return self.num_sets * self.assoc

    def set_index(self, block_addr: int) -> int:
        """Set index for a block address (low-order block bits)."""
        return block_addr & self._set_mask

    def line(self, set_idx: int, way: int) -> CacheLine:
        """Direct line access (used by cache engines and tests).

        A way that holds no valid or reserved line returns
        :data:`UNALLOCATED`, which must not be written.
        """
        return self._sets[set_idx][way]

    def iter_valid_lines(self) -> Iterator[CacheLine]:
        """Yield every valid (non-reserved) line."""
        for ways in self._sets:
            for line in ways:
                if line.valid:
                    yield line

    # ------------------------------------------------------------------
    def lookup(self, block_addr: int) -> Tuple[int, Optional[int]]:
        """Return ``(set_idx, way)``; way is None on miss.

        Only valid lines match; reserved (in-flight) lines do not count as
        hits -- the MSHR handles those as merged misses.  Hot paths use
        :attr:`find` instead, which returns None on a miss.
        """
        entry = self._index.get(block_addr)
        if entry is not None:
            return entry
        return block_addr & self._set_mask, None

    def probe_reserved(self, block_addr: int) -> bool:
        """True if a reservation for *block_addr* is pending in its set."""
        return block_addr in self._reserved_index

    def touch(self, set_idx: int, way: int, is_write: bool) -> None:
        """Record a hit for replacement state and residency counters."""
        line = self._sets[set_idx][way]
        if self._lru:
            self._stamp(set_idx, way)
        if is_write:
            line.dirty = True
            line.writes_observed += 1
        else:
            line.reads_observed += 1

    # ------------------------------------------------------------------
    def can_reserve(self, block_addr: int) -> bool:
        """True when the set has at least one non-reserved way."""
        return self._reserved_count[block_addr & self._set_mask] < self.assoc

    def peek_victim(self, block_addr: int) -> Tuple[bool, Optional[CacheLine]]:
        """Preview what :meth:`reserve` would do, without mutating.

        Returns ``(can_reserve, victim_line)``: ``victim_line`` is the
        valid line that would be displaced, or None when a free way exists
        (or when reservation is impossible).  The subsequent
        :meth:`reserve` picks the same victim.
        """
        set_idx = block_addr & self._set_mask
        if self._free_ways[set_idx]:
            return True, None
        victim_way = self._victim(set_idx)
        if victim_way is None:
            return False, None
        return True, self._sets[set_idx][victim_way]

    def reserve(
        self, block_addr: int, cycle: int = 0
    ) -> Tuple[int, int, Optional[CacheLine]]:
        """Reserve a way for an in-flight fill of *block_addr*.

        Selects a victim among non-reserved ways (invalid ways first),
        installs a reserved line there and returns ``(set_idx, way,
        evicted)``.  ``evicted`` is the valid line that was displaced
        (no longer part of the array), or None.

        Raises:
            RuntimeError: when every way in the set is already reserved.
                Callers must check :meth:`can_reserve` first; running out of
                ways is the "cannot obtain a free cache line" structural
                hazard that surfaces as a reservation failure.
        """
        set_idx = block_addr & self._set_mask
        ways = self._sets[set_idx]
        free = self._free_ways[set_idx]
        evicted: Optional[CacheLine] = None
        if free:
            # lowest free way index, same choice a first-free scan makes,
            # in O(log assoc)
            victim_way = heappop(free)
        else:
            # no free way: every non-reserved way holds a valid line
            victim_way = self._victim(set_idx)
            if victim_way is None:
                raise RuntimeError(
                    f"reserve() with all ways reserved in set {set_idx}"
                )
            evicted = ways[victim_way]
            del self._index[evicted.block_addr]
        ways[victim_way] = CacheLine(
            tag=block_addr, reserved=True, block_addr=block_addr,
            fill_cycle=cycle,
        )
        self._reserved_count[set_idx] += 1
        self._reserved_index[block_addr] = (set_idx, victim_way)
        # a reserved way is never a victim; the completing fill restamps it
        self._stamps[set_idx][victim_way] = _UNSTAMPED
        return set_idx, victim_way, evicted

    def fill(
        self,
        block_addr: int,
        cycle: int = 0,
        is_write: bool = False,
        fill_pc: int = 0,
        predicted_level: Optional[object] = None,
    ) -> Tuple[int, int]:
        """Complete the reservation for *block_addr*.

        Returns ``(set_idx, way)`` of the now-valid line.

        Raises:
            RuntimeError: when no reservation exists (fills must always have
                been preceded by a reserve; anything else is an engine bug).
        """
        entry = self._reserved_index.pop(block_addr, None)
        if entry is None:
            raise RuntimeError(
                f"fill() without reservation for 0x{block_addr:x}"
            )
        set_idx, way = entry
        line = self._sets[set_idx][way]
        line.reserved = False
        line.valid = True
        line.dirty = is_write
        line.fill_pc = fill_pc
        line.predicted_level = predicted_level
        line.fill_cycle = cycle
        self._reserved_count[set_idx] -= 1
        self._stamp(set_idx, way)
        self._index[block_addr] = entry
        return entry

    def install(
        self,
        block_addr: int,
        cycle: int = 0,
        dirty: bool = False,
        fill_pc: int = 0,
        predicted_level: Optional[object] = None,
    ) -> Tuple[int, int, Optional[CacheLine]]:
        """Reserve-and-fill in one step (used for migrations between banks,
        where the data is already on chip and no fill response is pending).
        """
        set_idx, way, evicted = self.reserve(block_addr, cycle)
        self.fill(block_addr, cycle, dirty, fill_pc, predicted_level)
        return set_idx, way, evicted

    def invalidate(self, block_addr: int) -> Optional[CacheLine]:
        """Invalidate *block_addr* if present; return the departed line."""
        entry = self._index.pop(block_addr, None)
        if entry is None:
            return None
        set_idx, way = entry
        ways = self._sets[set_idx]
        departed = ways[way]
        ways[way] = UNALLOCATED
        heappush(self._free_ways[set_idx], way)
        return departed

    # ------------------------------------------------------------------
    def _stamp(self, set_idx: int, way: int) -> None:
        """Make *way* the youngest in its set (a fill; an LRU hit)."""
        tick = self._tick + 1
        self._tick = tick
        stamps = self._stamps[set_idx]
        stamps[way] = tick
        heaps = self._heaps
        if heaps is not None:
            heap = heaps[set_idx]
            heappush(heap, (tick, way))
            # Stale entries are normally dropped by _victim, but
            # hit-dominated phases (LRU restamps on every hit and a
            # high-hit-rate set rarely evicts) would grow the heap
            # O(accesses).  Rebuilding from the live stamps keeps it
            # bounded at O(assoc), amortized O(1) per stamp, and cannot
            # change any selection: live entries are identical either way.
            if len(heap) > 2 * self.assoc + 64:
                heap = heaps[set_idx] = [
                    (stamp, way_)
                    for way_, stamp in enumerate(stamps)
                    if stamp != _UNSTAMPED
                ]
                heapify(heap)

    def _victim(self, set_idx: int) -> Optional[int]:
        """The oldest-stamped way of a set with no free way, or None
        when every way is reserved."""
        stamps = self._stamps[set_idx]
        heaps = self._heaps
        if heaps is None:
            way = min(range(self.assoc), key=stamps.__getitem__)
            return None if stamps[way] == _UNSTAMPED else way
        # reserved ways hold no live entry, so the first live entry is
        # the oldest-stamped eligible way
        heap = heaps[set_idx]
        while heap:
            stamp, way = heap[0]
            if stamps[way] == stamp:
                return way
            heappop(heap)
        return None

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(1 for _ in self.iter_valid_lines())
