"""Cache replacement policies.

The paper uses LRU for the SRAM bank and set-associative baselines, and FIFO
for the fully-associative STT-MRAM bank because "the circuit complexity of
LRU is not affordable in a full-associative cache" (Section V).  PseudoLRU
and Random are provided as drop-in alternatives for ablation studies, as the
paper notes other low-cost policies can be integrated.

Each policy tracks its own per-set metadata; the :class:`~repro.cache.
tag_array.TagArray` drives it through three hooks:

* ``on_fill(set_idx, way)``   -- a block was installed into a way,
* ``on_access(set_idx, way)`` -- a block was hit,
* ``select_victim(set_idx, candidates)`` -- choose a way to evict among the
  candidate ways (ways holding reserved, in-flight lines are excluded by the
  caller).
"""

from __future__ import annotations

import abc
import random
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

__all__ = [
    "FIFOPolicy", "LRUPolicy", "PseudoLRUPolicy", "RandomPolicy",
    "ReplacementPolicy", "known_policies", "make_replacement_policy",
]

#: associativity at which stamp-based policies switch from a linear
#: minimum scan to a lazily-invalidated min-heap for whole-set victim
#: selection (the 256-way FA-SRAM and 512-way approximated-FA STT banks
#: are the targets; tiny 2/4-way sets scan faster than they heap)
_HEAP_ASSOC_THRESHOLD = 16


class ReplacementPolicy(abc.ABC):
    """Interface implemented by all replacement policies."""

    name: str = "abstract"

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must both be >= 1")
        self.num_sets = num_sets
        self.assoc = assoc

    @abc.abstractmethod
    def on_fill(self, set_idx: int, way: int) -> None:
        """Record that a new block was installed into (set_idx, way)."""

    @abc.abstractmethod
    def on_access(self, set_idx: int, way: int) -> None:
        """Record a hit on (set_idx, way)."""

    @abc.abstractmethod
    def select_victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        """Pick the way to evict among *candidates* (never empty)."""

    def select_victim_all(self, set_idx: int) -> int:
        """Pick a victim when *every* way is a candidate.

        Semantically identical to ``select_victim(set_idx,
        range(assoc))`` -- the steady-state fast path the tag array takes
        once a set is full and no reservation is pending, which lets
        stamp-based policies answer from an oldest-stamp heap instead of
        scanning the whole (possibly 512-way) set.
        """
        return self.select_victim(set_idx, range(self.assoc))

    def on_reserve(self, set_idx: int, way: int) -> None:
        """A way entered the reserved (fill-in-flight) state.

        Reserved ways are never victim candidates; stamp-based policies
        use this hook to retire the way's heap entry until the completing
        fill restamps it.  Default: nothing.
        """

    def select_victim_scan(self, set_idx: int, lines) -> Optional[int]:
        """Pick a victim among the non-reserved ways of a full set.

        *lines* is the set's :class:`~repro.cache.tag_array.CacheLine`
        list; ways whose line is reserved (fill in flight) are not
        eligible.  Returns None when every way is reserved.  Semantically
        identical to filtering candidates and calling
        :meth:`select_victim`; stamp-based policies override this to
        answer from the heap in O(log n).
        """
        candidates = [w for w, line in enumerate(lines) if not line.reserved]
        if not candidates:
            return None
        return self.select_victim(set_idx, candidates)


class _StampedPolicy(ReplacementPolicy):
    """Shared machinery for stamp-ordered policies (LRU, FIFO).

    Stamps are unique and monotonically increasing, so "the way with the
    minimum stamp" is a deterministic victim.  For wide sets a per-set
    min-heap of ``(stamp, way)`` entries answers
    :meth:`select_victim_all` in O(log n): entries are pushed on every
    (re)stamp and invalidated lazily -- an entry is stale exactly when
    the way has been restamped since it was pushed.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._tick = 0
        self._stamps = [[-1] * assoc for _ in range(num_sets)]
        self._use_heap = assoc >= _HEAP_ASSOC_THRESHOLD
        self._heaps = (
            [[] for _ in range(num_sets)] if self._use_heap else None
        )

    def _stamp(self, set_idx: int, way: int) -> None:
        self._tick += 1
        self._stamps[set_idx][way] = self._tick
        if self._use_heap:
            heap = self._heaps[set_idx]
            heappush(heap, (self._tick, way))
            # Stale entries are normally dropped during victim selection,
            # but hit-dominated phases (LRU restamps on every access and
            # a high-hit-rate set rarely evicts) would grow the heap
            # O(accesses).  Rebuilding from the live stamps keeps it
            # bounded at O(assoc) amortized-O(1) per stamp, and cannot
            # change any selection: live entries are identical either way.
            if len(heap) > 2 * self.assoc + 64:
                self._heaps[set_idx] = [
                    (stamp, way_)
                    for way_, stamp in enumerate(self._stamps[set_idx])
                    if stamp >= 1
                ]
                heapify(self._heaps[set_idx])

    def select_victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        return min(candidates, key=self._stamps[set_idx].__getitem__)

    def select_victim_all(self, set_idx: int) -> int:
        stamps = self._stamps[set_idx]
        if self._use_heap:
            heap = self._heaps[set_idx]
            while heap:
                stamp, way = heap[0]
                if stamps[way] == stamp:
                    return way
                heappop(heap)
        return min(range(self.assoc), key=stamps.__getitem__)

    def on_reserve(self, set_idx: int, way: int) -> None:
        # Retire the way's live heap entry: reserved ways must never win
        # a victim selection, and the completing fill restamps them.  The
        # sentinel only has to mismatch every pushed stamp (stamps are
        # >= 1); the listcomp paths never read a reserved way's stamp.
        self._stamps[set_idx][way] = -1

    def select_victim_scan(self, set_idx: int, lines) -> Optional[int]:
        if not self._use_heap:
            return super().select_victim_scan(set_idx, lines)
        # reserved ways hold no live entry (see on_reserve), so the first
        # live entry is the oldest-stamped eligible way
        heap = self._heaps[set_idx]
        stamps = self._stamps[set_idx]
        while heap:
            stamp, way = heap[0]
            if stamps[way] == stamp:
                return way
            heappop(heap)
        return None


class LRUPolicy(_StampedPolicy):
    """Least-recently-used, tracked with a per-line logical timestamp."""

    name = "lru"

    # a fill and a hit both restamp the way; binding the hooks to the
    # stamp itself keeps a hit at one call into the policy
    on_fill = on_access = _StampedPolicy._stamp


class FIFOPolicy(_StampedPolicy):
    """First-in-first-out: evict the oldest installed block.

    Hits do not refresh a block's age, which is what makes FIFO cheap enough
    for the 512-way approximated fully-associative STT-MRAM bank.
    """

    name = "fifo"

    on_fill = _StampedPolicy._stamp

    def on_access(self, set_idx: int, way: int) -> None:
        # FIFO ignores hits by definition.
        pass


class PseudoLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (the classic one-bit-per-node binary tree).

    Only exact for power-of-two associativity; other associativities round
    the tree up and clamp the selected way, which preserves the "recently
    used ways are protected" behaviour that matters for simulation.
    """

    name = "plru"

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._levels = max(1, (assoc - 1).bit_length())
        self._bits = [[0] * ((1 << self._levels) - 1) for _ in range(num_sets)]

    def _touch(self, set_idx: int, way: int) -> None:
        bits = self._bits[set_idx]
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            # Point the node away from the touched way.
            bits[node] = 1 - bit
            node = 2 * node + 1 + bit

    def on_fill(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def on_access(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def select_victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        bits = self._bits[set_idx]
        node = 0
        way = 0
        for level in range(self._levels):
            bit = bits[node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        candidate_set = set(candidates)
        if way in candidate_set:
            return way
        # The tree pointed at a way we may not evict (reserved line or
        # non-power-of-two associativity); fall back to the lowest candidate.
        return min(candidates)


class RandomPolicy(ReplacementPolicy):
    """Seeded uniform-random victim selection (deterministic for tests)."""

    name = "random"

    def __init__(self, num_sets: int, assoc: int, seed: int = 0xF05E) -> None:
        super().__init__(num_sets, assoc)
        self._rng = random.Random(seed)

    def on_fill(self, set_idx: int, way: int) -> None:
        pass

    def on_access(self, set_idx: int, way: int) -> None:
        pass

    def select_victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        ordered = sorted(candidates)
        return ordered[self._rng.randrange(len(ordered))]


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "plru": PseudoLRUPolicy,
    "random": RandomPolicy,
}


def make_replacement_policy(
    name: str, num_sets: int, assoc: int
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Args:
        name: one of ``lru``, ``fifo``, ``plru``, ``random``.
        num_sets: number of sets in the owning tag array.
        assoc: ways per set.

    Raises:
        ValueError: when *name* is not a known policy.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown replacement policy {name!r}; known: {known}")
    return cls(num_sets, assoc)


def known_policies() -> Iterable[str]:
    """Names accepted by :func:`make_replacement_policy`."""
    return sorted(_POLICIES)
