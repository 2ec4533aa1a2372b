"""``WritebackSink``: the shared eviction/writeback path.

A line leaving any L1D follows one rule: count the eviction, let the
owning engine score its predictor (dead-write diagnostics for By-NVM,
read-level accuracy for Dy-FUSE), and surface a dirty line's block
address so the simulator forwards the writeback to L2 as
fire-and-forget traffic.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine

__all__ = [
    "WritebackSink",
]


class WritebackSink:
    """Eviction accounting + dirty-writeback emission.

    Args:
        stats: the owning cache's flat counter object.
        leaves_cache: when True the eviction is also counted in
            ``evictions_to_l2`` (the FUSE engines distinguish lines that
            leave the L1D entirely from bank-to-bank migrations).
        scorer: optional per-eviction predictor-scoring hook, called
            as ``scorer(stats, line)``.  It is a plain function, never a
            bound method of the owning cache: the cache holds this sink,
            so a bound method would close a reference cycle and leave
            every finished cache to the cyclic garbage collector.
    """

    __slots__ = ("stats", "leaves_cache", "scorer")

    def __init__(
        self,
        stats: CacheStats,
        leaves_cache: bool = False,
        scorer: Optional[Callable[[CacheStats, CacheLine], None]] = None,
    ) -> None:
        self.stats = stats
        self.leaves_cache = leaves_cache
        self.scorer = scorer

    def evict(self, evicted: CacheLine) -> Tuple[int, ...]:
        """Account one eviction (the departed line); returns the
        writeback tuple."""
        stats = self.stats
        stats.evictions += 1
        if self.leaves_cache:
            stats.evictions_to_l2 += 1
        if self.scorer is not None:
            self.scorer(stats, evicted)
        if evicted.dirty:
            stats.dirty_writebacks += 1
            return (evicted.block_addr,)
        return ()
