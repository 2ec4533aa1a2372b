"""``MissPath``: the shared MSHR miss discipline.

Every non-blocking L1D in this repository follows the same
check-then-commit sequence on a tag miss:

1. an outstanding miss to the same block either *merges* (secondary
   miss, no new off-chip traffic) or, when the entry is merge-full,
   rejects the access with a reservation failure;
2. a new primary miss needs a free MSHR entry (and whatever
   engine-specific resources -- a reservable way, a destination bank);
3. the off-chip response *releases* the entry, and every merged
   secondary is replayed against the filled line's residency counters.

The engine probes the MSHR itself (``mshr.get``, one dict lookup) and
owns its resource checks and the primary allocation; ``MissPath`` owns
the accounting of steps 1 and 3 and of every reservation failure.
"""

from __future__ import annotations

from repro.cache.interface import REJECTED, AccessOutcome, AccessResult
from repro.cache.mshr import MSHR, MSHREntry
from repro.cache.request import MemoryRequest
from repro.cache.stats import CacheStats

__all__ = [
    "MissPath",
]

_HIT_PENDING = AccessOutcome.HIT_PENDING


class MissPath:
    """MSHR merge + reservation-failure accounting + fill completion."""

    __slots__ = ("stats", "_max_merged")

    def __init__(self, mshr: MSHR, stats: CacheStats) -> None:
        self.stats = stats
        self._max_merged = mshr.max_merged

    # ------------------------------------------------------------------
    def merge(
        self, entry: MSHREntry, request: MemoryRequest, block: int,
        cycle: int,
    ) -> AccessResult:
        """Resolve an access to a block with an outstanding miss *entry*.

        The access merges into the entry (``HIT_PENDING``) or, when the
        entry is merge-full, is rejected (``RESERVATION_FAIL``, counted).
        """
        requests = entry.requests
        if len(requests) < self._max_merged:
            requests.append(request)
            self.stats.merged_misses += 1
            return AccessResult(_HIT_PENDING, cycle, (), block)
        self.stats.reservation_fails += 1
        return REJECTED

    def reject(self) -> AccessResult:
        """Count and report one structural-hazard reservation failure."""
        self.stats.reservation_fails += 1
        return REJECTED

    # ------------------------------------------------------------------
    @staticmethod
    def apply_merged(entry: MSHREntry, line) -> None:
        """Replay merged secondaries on the filled line's counters.

        The primary request's read/write nature is applied by the tag
        array's fill itself; secondaries only touch residency counters
        (and dirtiness for stores), exactly like a hit would have.
        Engines call this only when the entry holds secondaries.
        """
        for merged in entry.requests[1:]:
            if merged.is_write:
                line.dirty = True
                line.writes_observed += 1
            else:
                line.reads_observed += 1
