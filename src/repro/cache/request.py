"""Memory request primitives shared by every cache and memory model.

The simulated machine uses 128-byte cache blocks end to end (L1D line, L2
line, DRAM burst and interconnect payload), matching the GPGPU-Sim
configuration the paper uses: a warp of 32 threads each touching 4 bytes
produces one fully-coalesced 128-byte transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "AccessType", "BLOCK_SHIFT", "BLOCK_SIZE", "MemoryRequest",
    "block_address",
]

#: Cache block size in bytes (fixed across the whole memory hierarchy).
BLOCK_SIZE = 128

#: log2(BLOCK_SIZE); used to convert byte addresses to block addresses.
BLOCK_SHIFT = 7


class AccessType(enum.Enum):
    """Kind of memory access issued by a warp."""

    LOAD = "load"
    STORE = "store"


def block_address(byte_address: int) -> int:
    """Return the block-granular address for *byte_address*.

    >>> block_address(0)
    0
    >>> block_address(127)
    0
    >>> block_address(128)
    1
    """
    return byte_address >> BLOCK_SHIFT


_next_request_id = 0


def _allocate_request_id() -> int:
    global _next_request_id
    _next_request_id += 1
    return _next_request_id


@dataclass(slots=True)
class MemoryRequest:
    """A single block-granular L1D transaction.

    One warp memory instruction expands (through the coalescer) into one or
    more ``MemoryRequest`` objects, each targeting a distinct 128-byte block.

    Attributes:
        address: byte address of the access (block-aligned by the coalescer).
        access_type: ``LOAD`` or ``STORE``.
        pc: program counter of the issuing static instruction.  The
            read-level predictor is indexed by a signature derived from it.
        sm_id: streaming multiprocessor that issued the request.
        warp_id: warp (within the SM) that issued the request.
        issue_cycle: core cycle at which the request reached the L1D.
        request_id: identity assigned at object construction (monotonic
            across constructions).  The SM's LSU pools and reuses request
            objects (:mod:`repro.gpu.sm`), so a recycled request keeps
            its original id: treat it as an object identity for
            debugging, not as a per-transaction sequence number.
        block_addr: block-granular address (``address >> BLOCK_SHIFT``).
        is_write: True when the request is a store.
        fail_owner / fail_epoch / fail_until / fail_delta: retry replay
            state, written by :meth:`L1DCacheModel.access
            <repro.cache.interface.L1DCacheModel.access>` on a real
            rejection -- the cache, its epoch, the cycle the rejection
            may lift and its counter delta.  A recycled request's stale
            values never match: an accepted access moves the epoch.
        retry_at / retry_rank: the SM's retry state -- the cycle of the
            request's next attempt and its lockstep rank in the event
            order (:mod:`repro.gpu.sm`), both set at a rejection.

    ``block_addr`` and ``is_write`` are plain slots derived once at
    construction, because every cache model reads them on every access.
    Code that re-targets a request (the SM's request pool) must set them
    together with ``address`` and ``access_type``.
    """

    address: int
    access_type: AccessType
    pc: int = 0
    sm_id: int = 0
    warp_id: int = 0
    issue_cycle: int = 0
    request_id: int = field(default_factory=_allocate_request_id)
    block_addr: int = field(init=False)
    is_write: bool = field(init=False)
    fail_owner: object = field(default=None, init=False, repr=False,
                               compare=False)
    fail_epoch: int = field(default=-1, init=False, repr=False, compare=False)
    fail_until: int = field(default=0, init=False, repr=False, compare=False)
    fail_delta: tuple = field(default=(), init=False, repr=False,
                              compare=False)
    retry_at: int = field(default=0, init=False, repr=False, compare=False)
    retry_rank: int = field(default=0, init=False, repr=False,
                            compare=False)

    def __post_init__(self) -> None:
        self.block_addr = self.address >> BLOCK_SHIFT
        self.is_write = self.access_type is AccessType.STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ST" if self.is_write else "LD"
        return (
            f"MemoryRequest({kind} 0x{self.address:x} pc=0x{self.pc:x} "
            f"sm={self.sm_id} w={self.warp_id} @{self.issue_cycle})"
        )
