"""Memory-access coalescing.

A warp executes one memory instruction across its 32 threads; the
coalescer merges the per-thread byte addresses into the minimal set of
128-byte block transactions.  Fully-coalesced (unit-stride) warps produce
a single transaction; fully-diverged warps (stride >= 128 B, e.g. column
walks through a row-major matrix -- the paper's "irregular" workloads)
produce up to 32.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.cache.request import BLOCK_SHIFT

__all__ = ["coalesce", "warp_addresses"]


def coalesce(addresses: Iterable[int]) -> List[int]:
    """Merge per-thread byte addresses into unique block addresses.

    Returns block addresses sorted ascending (the order the LSU emits
    transactions in).  Inactive threads are expressed by simply omitting
    their address.

    >>> coalesce([0, 4, 8, 124])          # one fully-coalesced warp
    [0]
    >>> coalesce([0, 128, 256])           # stride 128: fully diverged
    [0, 1, 2]
    """
    return sorted({addr >> BLOCK_SHIFT for addr in addresses})


def warp_addresses(
    base: int, stride: int, num_threads: int = 32
) -> List[int]:
    """Per-thread addresses for a strided warp access.

    The lane address is ``base + lane * stride``.

    Args:
        base: address touched by lane 0.
        stride: byte distance between consecutive lanes (the element
            size -- typically 4 -- for unit-stride/coalesced access; a
            row pitch for column walks).
        num_threads: active lanes.
    """
    return [base + lane * stride for lane in range(num_threads)]
