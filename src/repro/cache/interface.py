"""The L1D cache protocol shared by every cache model.

The GPU simulator drives any L1D through two calls:

* :meth:`L1DCacheModel.access` -- a coalesced transaction arrives.  The
  result tells the simulator whether the data is available (``HIT`` with a
  ``ready_cycle``), whether the request went off-chip (``MISS`` /
  ``MISS_BYPASS``), was merged into an outstanding miss (``HIT_PENDING``),
  or whether a structural hazard forces a retry (``RESERVATION_FAIL``).
* :meth:`L1DCacheModel.fill` -- the off-chip response for a block arrived.
  The result lists every merged request that is now complete, so the SM can
  unblock the owning warps.

Dirty evictions surface as ``writebacks`` on either call; the simulator
forwards them to the memory subsystem as fire-and-forget traffic.

A rejected request retries every :data:`RETRY_INTERVAL` cycles.  A
model that declares :attr:`L1DCacheModel._replay_rejection` lets a retry
whose answer cannot have changed skip the cache walk: it re-applies the
counter delta of the request's last real rejection and returns
:data:`REJECTED` (docs/performance.md, "Retry replay").
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.cache.request import MemoryRequest
from repro.cache.stats import CacheStats

__all__ = [
    "AccessOutcome", "AccessResult", "FillResult", "L1DCacheModel", "NEVER",
    "REJECTED", "RETRY_INTERVAL", "RejectionDelta",
]


#: Cycles the LSU waits before retrying after a RESERVATION_FAIL.  Shared
#: between the SM model (which schedules the retry) and cache engines
#: (which charge it as stall time when a structural hazard rejects an
#: access), so stall accounting and actual retry timing stay consistent.
RETRY_INTERVAL = 4


class AccessOutcome(enum.Enum):
    """Result category of a single L1D access."""

    HIT = "hit"
    HIT_PENDING = "hit_pending"      # merged into an in-flight MSHR entry
    MISS = "miss"                    # primary miss, forwarded off-chip
    MISS_BYPASS = "miss_bypass"      # forwarded off-chip, no allocation
    RESERVATION_FAIL = "reservation_fail"


@dataclass(slots=True)
class AccessResult:
    """Outcome of :meth:`L1DCacheModel.access`.

    Attributes:
        outcome: what happened (see :class:`AccessOutcome`).
        ready_cycle: for ``HIT``, the cycle the data is available; for the
            store-hit case this is when the write completes in the bank.
        writebacks: dirty block addresses evicted by this access that must
            be written back to L2.
        block_addr: the block this access targeted (convenience).
    """

    outcome: AccessOutcome
    ready_cycle: int = 0
    writebacks: Tuple[int, ...] = ()
    block_addr: int = -1


_RESERVATION_FAIL = AccessOutcome.RESERVATION_FAIL

#: the one result every rejection returns (real or replayed): the SM
#: reads nothing from a ``RESERVATION_FAIL`` but its outcome, so a
#: rejection carries no ready cycle, block or writebacks
REJECTED = AccessResult(_RESERVATION_FAIL)

#: ``fail_until`` of a rejection that no passage of time can lift (only
#: an accepted access or a fill -- a new epoch -- can)
NEVER = 1 << 62

#: a rejection's counter delta: ``(counters, field, amount)`` triples,
#: ``counters`` being the cache's :class:`CacheStats` or another counter
#: object the rejection bumps (the CBF array's)
RejectionDelta = Tuple[Tuple[object, str, int], ...]


@dataclass(slots=True)
class FillResult:
    """Outcome of :meth:`L1DCacheModel.fill`.

    Attributes:
        ready_cycle: cycle at which the fill data became usable by warps.
        completed: the requests (primary + merged) satisfied by this fill.
        writebacks: dirty evictions triggered by installing the fill.
    """

    ready_cycle: int
    completed: List[MemoryRequest] = field(default_factory=list)
    writebacks: Tuple[int, ...] = ()


class L1DCacheModel(abc.ABC):
    """Abstract base class for all L1D cache models.

    Subclasses implement :meth:`_access_impl`; the public :meth:`access`
    wrapper owns the access/read/write counters and the predictor-training
    hook so that **rejected attempts are not double-counted**: an LSU
    retries a ``RESERVATION_FAIL`` every few cycles, and counting each
    attempt would inflate APKI and mistrain samplers with phantom reuse.

    :meth:`access` also owns **retry replay**.  The cache's *epoch*,
    ``stats.accesses + stats.fills``, moves with every accepted access
    and every fill -- the only operations that change what a rejection
    reads.  On a real rejection of a declared model, the request keeps
    the epoch, the model's ``fail_until`` bound and the counter delta of
    the rejection; a retry of the same request at the same epoch before
    ``fail_until`` re-applies that delta and returns :data:`REJECTED`
    without calling :meth:`_access_impl`.  The request's fields must not
    change between a rejection and its retry (the SM re-presents the
    same object).
    """

    #: short configuration name (e.g. ``"Dy-FUSE"``), set by factories
    name: str = "l1d"

    #: predictor-training hook ``(request) -> None``, called once per
    #: accepted access; models that train a predictor bind it (usually
    #: straight to the predictor's ``observe``), the rest leave it None
    _observe: Optional[Callable[[MemoryRequest], None]] = None

    #: Retry-replay declaration: ``() -> (fail_until, delta)``, describing
    #: the rejection :meth:`_access_impl` just returned.  ``fail_until``
    #: is the first cycle at which the rejection might lift without a new
    #: epoch (:data:`NEVER` when it reads no clock); ``delta`` is every
    #: counter increment it made.  A model may declare it only when its
    #: rejections change nothing but those counters, and when everything
    #: a rejection reads changes only through an accepted access or a
    #: fill that counts ``stats.fills`` (the epoch).  ``None``, the
    #: default, makes every retry re-run :meth:`_access_impl` -- the safe
    #: choice for a model (a user's custom L1D) nobody has checked.
    _replay_rejection: Optional[
        Callable[[], Tuple[int, RejectionDelta]]
    ] = None

    def __init__(self) -> None:
        stats = self.stats = CacheStats()
        #: the delta of a rejection that costs one tag lookup and one
        #: reservation failure
        self._lookup_rejection: RejectionDelta = (
            (stats, "tag_lookups", 1), (stats, "reservation_fails", 1),
        )

    def access(self, request: MemoryRequest, cycle: int) -> AccessResult:
        """Present one coalesced transaction to the cache at *cycle*."""
        stats = self.stats
        epoch = stats.accesses + stats.fills
        if (request.fail_epoch == epoch and cycle < request.fail_until
                and request.fail_owner is self):
            for counters, name, amount in request.fail_delta:
                setattr(counters, name, getattr(counters, name) + amount)
            return REJECTED
        result = self._access_impl(request, cycle)
        if result.outcome is not _RESERVATION_FAIL:
            stats.accesses += 1
            if request.is_write:
                stats.write_accesses += 1
            else:
                stats.read_accesses += 1
            observe = self._observe
            if observe is not None:
                observe(request)
            return result
        replay = self._replay_rejection
        if replay is not None:
            request.fail_until, request.fail_delta = replay()
            request.fail_epoch = epoch
            request.fail_owner = self
        return result

    def _replay_lookup_rejection(self) -> Tuple[int, RejectionDelta]:
        """Replay declaration of a model whose every rejection reads no
        clock and costs exactly one tag lookup plus one reservation
        failure (the baseline engines and the oracle)."""
        return NEVER, self._lookup_rejection

    @abc.abstractmethod
    def _access_impl(self, request: MemoryRequest, cycle: int) -> AccessResult:
        """Cache-specific access logic (see :meth:`access`)."""

    @abc.abstractmethod
    def fill(self, block_addr: int, cycle: int) -> FillResult:
        """Deliver the off-chip response for *block_addr* at *cycle*."""

    def flush_metadata(self) -> None:
        """Hook for end-of-run bookkeeping (e.g. scoring still-resident
        predictor decisions).  Default: nothing."""
