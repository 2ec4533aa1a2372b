"""Associativity approximation for the STT-MRAM bank (Section III-B).

A true fully-associative cache compares every stored tag in parallel --
prohibitive at 512 ways (the paper cites 30.6x area and 28.3x power versus
4-way for even a 16 KB array).  FUSE instead:

1. partitions the 512-way tag array into groups sized to the number of
   parallel comparators (:data:`TAG_COMPARATORS`), and
2. places one counting Bloom filter in front of each group.  A lookup first
   tests every CBF in parallel (one STT-MRAM read, sub-cycle), then polls
   only the *positive* groups, one group per cycle, 4 tags compared per
   iteration.

With well-tuned CBFs the search takes 1-2 cycles across the paper's
workloads; CBF false positives add wasted iterations, which Figure 20
quantifies.  The tag queue keeps those extra cycles off the SM's critical
path (they surface as ``tag_search_stall_cycles``, Figure 15).

Each CBF is a row of 2-bit **saturating** counters indexed by double
hashing (``h1 + i*h2``, with a per-group salt so groups hash
independently).  A counter that reaches 3 is never decremented again
("stuck"): it may have absorbed more increments than it can count, and
decrementing it could create a false negative.  Stuck counters only
add false positives, so a resident block's group always tests positive.

Implementation note: the "test every CBF in parallel" step is priced
through one **packed nonzero bitmap** -- a Python int holding one lane
per group, where bit ``c`` of group *g*'s lane is set while counter
``(g, c)`` is nonzero, maintained incrementally on 0<->1 crossings.  A
key's membership in every group then collapses to a handful of big-int
operations: the key's packed slot mask minus the bitmap leaves, in
each group's lane, the slots the key needs that are still zero; folding
each lane onto its lowest bit and counting bits yields the number of
negative groups.  Property tests recount every search from the counter
rows and check the bitmap against them.  The hash-index and key-mask
patterns are pure functions of the filter geometry, so they are
memoised **process-wide** (shared across every SM's bank and every run
of a sweep) rather than per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ApproximateAssociativeArray", "CBF_TEST_CYCLES", "SearchResult",
    "TAG_COMPARATORS",
]

#: tags compared in parallel per polling iteration (Section III-B): one
#: CBF fronts a group of at most this many ways
TAG_COMPARATORS = 4

#: L1D cycles that testing every CBF adds to a search: none, because
#: the NVM-CBF test takes one 591 ps STT-MRAM read (Section IV-C), which
#: fits in one 714 ps L1D cycle at 1.4 GHz
CBF_TEST_CYCLES = 0

#: stride separating the hash streams of adjacent groups
_GROUP_SALT = 0x9E3779B97F4A7C15

#: geometry (num_cbfs, num_hashes, cbf_counters) -> shared pattern maps.
#: Patterns depend only on the geometry and the key's two double-hash
#: residues, so every bank of every SM in every run of the process
#: shares one set (at most ``cbf_counters^2`` residue pairs each).
_PATTERN_CACHE: Dict[Tuple[int, int, int], Dict[str, Dict]] = {}

#: per-geometry cap on the key -> pattern memo (the residue-pair maps
#: underneath are naturally tiny; the key maps are what could grow with
#: a huge-footprint workload)
_KEY_CACHE_CAP = 1 << 16


def _mix64(value: int) -> int:
    """A 64-bit finalizer-style mixer (splitmix64 constants)."""
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _shared_patterns(num_cbfs: int, num_hashes: int,
                     cbf_counters: int) -> Dict[str, Dict]:
    """The process-wide pattern maps for one filter geometry."""
    geometry = (num_cbfs, num_hashes, cbf_counters)
    patterns = _PATTERN_CACHE.get(geometry)
    if patterns is None:
        patterns = {
            "slots": {},      # (h1m, h2m) -> tuple[tuple[int, ...], ...]
            "masks": {},      # (h1m, h2m) -> packed per-group slot mask
            "key_slots": {},  # key -> shared slots tuple
            "key_masks": {},  # key -> shared packed slot mask
        }
        _PATTERN_CACHE[geometry] = patterns
    return patterns


@dataclass(slots=True)
class SearchResult:
    """Outcome of one approximated tag search.

    Attributes:
        way: matching way index, or None on miss.
        cycles: tag-search latency in cycles (CBF test + polling
            iterations).
        iterations: tag-array polling iterations performed.
        false_positives: positive CBF groups that did not hold the tag.
    """

    way: Optional[int]
    cycles: int
    iterations: int
    false_positives: int


class ApproximateAssociativeArray:
    """Tag-search engine for a 1-set x N-way STT-MRAM bank.

    The array tracks *which way holds which block* and prices each lookup.
    It mirrors a cache engine's tag array: the engine owns placement and
    reports it through :meth:`note_install` / :meth:`note_evict`.

    Args:
        num_ways: ways in the (single-set) array; Table I uses 512.
        num_cbfs: tag-array partitions, one CBF each (Table I: 128).
        num_hashes: hash functions per CBF (Table I: 3).
        cbf_counters: counter-array length per CBF (Table I: 16;
            Figure 20 sweeps up to 128).
        exact: when True, model an ideal fully-associative search (single
            cycle, no CBFs) -- the comparison baseline of Figure 7b.
    """

    COUNTER_MAX = 3  # 2-bit saturating counters

    def __init__(
        self,
        num_ways: int = 512,
        num_cbfs: int = 128,
        num_hashes: int = 3,
        cbf_counters: int = 16,
        exact: bool = False,
    ) -> None:
        if num_ways < 1:
            raise ValueError("num_ways must be >= 1")
        if num_cbfs < 1 or num_cbfs > num_ways:
            raise ValueError("num_cbfs must be in [1, num_ways]")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        if cbf_counters < 1:
            raise ValueError("cbf_counters must be >= 1")
        self.num_ways = num_ways
        self.num_cbfs = num_cbfs
        self.num_hashes = num_hashes
        self.cbf_counters = cbf_counters
        self.exact = exact
        self._group_size = (num_ways + num_cbfs - 1) // num_cbfs

        #: 2-bit saturating counters, one row per group (plain ints: the
        #: update loop touches at most ``num_hashes`` scalars per call)
        self._counters: List[List[int]] = [
            [0] * cbf_counters for _ in range(num_cbfs)
        ]
        #: packed nonzero bitmap (see module docstring): group *g* owns
        #: bits ``[g * lane, (g + 1) * lane)``; the lane is the counter
        #: count rounded up to a power of two, so folding a lane onto its
        #: lowest bit never pulls in a neighbour's bits
        self._lane = 1 << (cbf_counters - 1).bit_length()
        self._nonzero = 0
        #: bit ``g * lane`` for every group
        self._lane_lsbs = sum(1 << (g * self._lane) for g in range(num_cbfs))
        #: right shifts that OR a lane onto its lowest bit
        self._fold_shifts = tuple(
            self._lane >> k for k in range(1, self._lane.bit_length())
        )
        self._patterns = _shared_patterns(num_cbfs, num_hashes, cbf_counters)
        self._key_mask_of = self._patterns["key_masks"].get

        self._way_block: List[int] = [-1] * num_ways
        self._block_way: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _key_hashes(self, key: int) -> Tuple[int, int]:
        h1 = _mix64(key)
        h2 = _mix64(h1 ^ 0xDA942042E4DD58B5) | 1
        return h1 % self.cbf_counters, h2 % self.cbf_counters

    def _build_patterns(self, key: int) -> Tuple[tuple, int]:
        """Resolve (and memoise) *key*'s per-group slot/mask patterns.

        A group's row depends on it only through ``group * salt_step %
        m``, so rows repeat every ``m / gcd(salt_step, m)`` groups: one
        period is built and tiled across the groups."""
        h1m, h2m = self._key_hashes(key)
        residue = (h1m, h2m)
        slots = self._patterns["slots"].get(residue)
        if slots is None:
            m = self.cbf_counters
            lane = self._lane
            salt_step = _GROUP_SALT % m
            period = m // math.gcd(salt_step, m)
            rows = []
            block = 0
            for group in range(min(period, self.num_cbfs)):
                base = h1m + (group * salt_step) % m
                row = tuple([
                    (base + step * h2m) % m for step in range(self.num_hashes)
                ])
                rows.append(row)
                for s in row:
                    block |= 1 << (group * lane + s)
            repeats, rest = divmod(self.num_cbfs, period)
            slots = tuple(rows) * repeats + tuple(rows[:rest])
            # times a base-2**width repunit: one carry-free copy per
            # whole period, then the first ``rest`` lanes
            width = period * lane
            repunit = ((1 << width * repeats) - 1) // ((1 << width) - 1)
            masks = block * repunit | (
                block & ((1 << rest * lane) - 1)) << width * repeats
            self._patterns["slots"][residue] = slots
            self._patterns["masks"][residue] = masks
        masks = self._patterns["masks"][residue]
        if len(self._patterns["key_slots"]) < _KEY_CACHE_CAP:
            self._patterns["key_slots"][key] = slots
            self._patterns["key_masks"][key] = masks
        return slots, masks

    def _key_slots(self, key: int) -> tuple:
        cached = self._patterns["key_slots"].get(key)
        if cached is not None:
            return cached
        return self._build_patterns(key)[0]

    # ------------------------------------------------------------------
    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._block_way

    def occupancy(self) -> int:
        return len(self._block_way)

    def way_of(self, block_addr: int) -> Optional[int]:
        """Stored way for a block (bypasses timing; used by tests)."""
        return self._block_way.get(block_addr)

    # ------------------------------------------------------------------
    def search(self, block_addr: int) -> SearchResult:
        """Perform (and price) one tag search for *block_addr*."""
        actual_way = self._block_way.get(block_addr)

        if self.exact:
            # Ideal fully-associative search: all comparators in parallel.
            return SearchResult(actual_way, 1, 1, 0)

        key_masks = self._key_mask_of(block_addr)
        if key_masks is None:
            key_masks = self._build_patterns(block_addr)[1]
        # slots the key needs that are zero, lane by lane; a lane with any
        # such slot is a negative group
        missing = key_masks & ~self._nonzero
        for shift in self._fold_shifts:
            missing |= missing >> shift
        negative = missing & self._lane_lsbs

        if actual_way is None:
            # A miss polls every positive group before concluding absent.
            iterations = self.num_cbfs - negative.bit_count()
            false_positives = iterations
        else:
            actual_group = actual_way // self._group_size
            # CBFs have no false negatives: the actual group is positive,
            # and groups are polled in ascending index order.
            below = (1 << (actual_group * self._lane)) - 1
            position = actual_group - (negative & below).bit_count()
            iterations = position + 1
            false_positives = position

        cycles = CBF_TEST_CYCLES + max(1, iterations)
        return SearchResult(actual_way, cycles, iterations, false_positives)

    # ------------------------------------------------------------------
    def _cbf_insert(self, block_addr: int, group: int) -> None:
        row = self._counters[group]
        for slot in self._key_slots(block_addr)[group]:
            value = row[slot]
            if value < self.COUNTER_MAX:
                row[slot] = value + 1
                if value == 0:
                    self._nonzero |= 1 << (group * self._lane + slot)

    def _cbf_remove(self, block_addr: int, group: int) -> None:
        row = self._counters[group]
        for slot in self._key_slots(block_addr)[group]:
            value = row[slot]
            # stuck counters stay at max (decrement would risk a false
            # negative -- see the module docstring)
            if 0 < value < self.COUNTER_MAX:
                row[slot] = value - 1
                if value == 1:
                    self._nonzero &= ~(1 << (group * self._lane + slot))

    # ------------------------------------------------------------------
    # The FUSE cache engine owns placement through its authoritative
    # TagArray and keeps this structure in sync so that searches are
    # priced against the true contents.
    def note_install(self, block_addr: int, way: int) -> None:
        """Mirror an install performed by the owning tag array.

        Raises:
            ValueError: when *way* is out of range.
            RuntimeError: when the way already holds a block (the owner
                must evict first).
        """
        if not 0 <= way < self.num_ways:
            raise ValueError(f"way {way} out of range")
        if self._way_block[way] != -1:
            raise RuntimeError(f"way {way} already holds a block")
        if block_addr in self._block_way:
            raise RuntimeError(f"block 0x{block_addr:x} already mirrored")
        self._way_block[way] = block_addr
        self._block_way[block_addr] = way
        self._cbf_insert(block_addr, way // self._group_size)

    def note_evict(self, block_addr: int) -> None:
        """Mirror an eviction performed by the owning tag array (a block
        that is not mirrored is ignored)."""
        way = self._block_way.pop(block_addr, None)
        if way is not None:
            self._way_block[way] = -1
            self._cbf_remove(block_addr, way // self._group_size)
