"""Address-pattern building blocks for the kernel models.

Every benchmark model composes a handful of archetypal GPU access
patterns; centralising them keeps the 21 kernels short and makes the
patterns unit-testable in isolation:

* :func:`coalesced_load` / :func:`coalesced_store` -- unit-stride warp
  access: 32 threads x 4 B = one 128-byte transaction.
* :func:`strided_load` -- column walks through row-major arrays (stride
  >= 128 B): 32 transactions per instruction, the signature of the
  paper's "irregular" workloads (ATAX, BICG, MVT, ...).
* :func:`gather_load` / :func:`scatter_store` -- per-lane random indices
  within a region (cfd's indirect neighbours, histogram bins, MapReduce
  hash buckets).
* :func:`interleave` -- pads a memory-instruction stream with compute
  blocks so the measured APKI tracks a target (Table II calibration).

The unit-stride and strided helpers coalesce in closed form
(:func:`unit_stride_blocks`, :func:`strided_blocks`): their blocks follow
from the first lane's address and the stride, so no lane list, set or
sort is built.  Gathers, scatters, wrapping strides and hand-built lane
lists go through :func:`repro.gpu.coalescer.coalesce`, the one general
path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.cache.request import BLOCK_SHIFT
from repro.gpu.coalescer import coalesce
from repro.workloads.trace import (
    COMPUTE,
    LOAD,
    STORE,
    WarpInstruction,
    _new,
    load_instruction,
    store_instruction,
)

__all__ = [
    "ELEMENT", "Region", "WARP_BYTES", "WARP_LANES", "coalesced_load",
    "coalesced_store", "gather_load", "interleave", "region", "rmw",
    "scatter_store", "strided_blocks", "strided_load", "strided_store",
    "unit_stride_blocks", "zipf_indices",
]

#: lane element size; each thread reads/writes a 4-byte word
ELEMENT = 4

#: threads per warp
WARP_LANES = 32

#: bytes one fully-coalesced warp access covers
WARP_BYTES = WARP_LANES * ELEMENT  # == 128, one block

#: byte distance from lane 0's word to the last lane's word
_UNIT_SPAN = WARP_BYTES - ELEMENT


@dataclass(frozen=True)
class Region:
    """A named array in the simulated global address space."""

    base: int
    size: int

    def addr(self, offset: int) -> int:
        """Byte address *offset* bytes into the region (wraps at size)."""
        return self.base + (offset % self.size)

    @property
    def blocks(self) -> int:
        return self.size // 128


#: regions are spaced far apart so distinct arrays never share blocks
_REGION_SPACING = 1 << 26


def region(index: int, size: int) -> Region:
    """Allocate the *index*-th array region of *size* bytes."""
    if size <= 0:
        raise ValueError("region size must be positive")
    return Region(base=0x1000_0000 + index * _REGION_SPACING, size=size)


# ----------------------------------------------------------------------
def unit_stride_blocks(addr: int) -> Tuple[int, ...]:
    """The blocks a unit-stride warp access at byte *addr* touches.

    Its lanes cover ``[addr, addr + 124]``: one 128-byte block when
    *addr* is block-aligned, else two consecutive ones.  Equal to
    ``coalesce(warp_addresses(addr, ELEMENT))`` without building lanes.
    """
    first = addr >> BLOCK_SHIFT
    last = (addr + _UNIT_SPAN) >> BLOCK_SHIFT
    return (first,) if first == last else (first, last)


def strided_blocks(
    reg: Region, offset: int, stride: int, lanes: int
) -> Tuple[int, ...]:
    """The blocks lanes ``reg.addr(offset + lane * stride)`` touch.

    When the lanes stay inside the region (no wrap) the answer is
    closed-form: for ``stride <= 128`` no block between the first and
    the last lane's is skipped, so it is that contiguous range; for a
    larger stride every lane has a block of its own, already in lane
    (ascending) order.  Anything else -- a wrapping walk, a non-positive
    stride, no lanes -- goes through the general :func:`coalesce`.
    """
    first = offset % reg.size
    span = (lanes - 1) * stride
    if lanes > 0 and stride > 0 and first + span < reg.size:
        addr = reg.base + first
        if stride <= WARP_BYTES:
            return tuple(range(
                addr >> BLOCK_SHIFT, ((addr + span) >> BLOCK_SHIFT) + 1
            ))
        return tuple([
            (addr + lane * stride) >> BLOCK_SHIFT for lane in range(lanes)
        ])
    return tuple(coalesce(
        [reg.addr(offset + lane * stride) for lane in range(lanes)]
    ))


def coalesced_load(pc: int, reg: Region, offset: int) -> WarpInstruction:
    """Unit-stride warp load of 128 consecutive bytes."""
    return _new(WarpInstruction, (
        LOAD, pc, 1, unit_stride_blocks(reg.addr(offset))
    ))


def coalesced_store(pc: int, reg: Region, offset: int) -> WarpInstruction:
    """Unit-stride warp store of 128 consecutive bytes."""
    return _new(WarpInstruction, (
        STORE, pc, 1, unit_stride_blocks(reg.addr(offset))
    ))


def strided_load(
    pc: int, reg: Region, offset: int, stride: int, lanes: int = WARP_LANES
) -> WarpInstruction:
    """Column-walk load: lanes *stride* bytes apart (diverged when >= 128).

    ``lanes < 32`` models partially-diverged warps (some lanes disabled
    or coalescing into fewer distinct blocks)."""
    return _new(WarpInstruction, (
        LOAD, pc, 1, strided_blocks(reg, offset, stride, lanes)
    ))


def strided_store(
    pc: int, reg: Region, offset: int, stride: int, lanes: int = WARP_LANES
) -> WarpInstruction:
    """Column-walk store."""
    return _new(WarpInstruction, (
        STORE, pc, 1, strided_blocks(reg, offset, stride, lanes)
    ))


def gather_load(
    pc: int, reg: Region, rng: random.Random, lanes: int = WARP_LANES
) -> WarpInstruction:
    """Random per-lane gather within *reg* (indirect reads)."""
    return load_instruction(
        pc,
        [reg.addr(rng.randrange(reg.size) & ~3) for _ in range(lanes)],
    )


def scatter_store(
    pc: int, reg: Region, rng: random.Random, lanes: int = WARP_LANES
) -> WarpInstruction:
    """Random per-lane scatter within *reg* (hash buckets, histogram bins)."""
    return store_instruction(
        pc,
        [reg.addr(rng.randrange(reg.size) & ~3) for _ in range(lanes)],
    )


def rmw(
    load_pc: int, store_pc: int, reg: Region, offset: int
) -> List[WarpInstruction]:
    """A coalesced read-modify-write pair (in-memory accumulators)."""
    return [
        coalesced_load(load_pc, reg, offset),
        coalesced_store(store_pc, reg, offset),
    ]


# ----------------------------------------------------------------------
def interleave(
    memory_instructions: Iterable[WarpInstruction],
    apki: float,
    rng: random.Random,
) -> Iterator[WarpInstruction]:
    """Pad a memory stream with compute so measured APKI tracks *apki*.

    APKI counts coalesced L1D transactions per thousand warp
    instructions, so an instruction carrying ``t`` transactions earns
    ``1000 * t / apki`` instruction slots.  The pad is jittered +-10% so
    schedulers see realistic variation rather than a metronome.

    Raises:
        ValueError: for non-positive *apki*.
    """
    if apki <= 0:
        raise ValueError("apki must be positive")
    draw = rng.random
    budget = 0.0
    for instruction in memory_instructions:
        # the memory instruction occupies one of its slots
        budget += 1000.0 * (len(instruction.transactions) or 1) / apki - 1
        if budget >= 1.0:
            # ``rng.uniform(0.9, 1.1)``'s own arithmetic, same draw
            pad = int(budget * (0.9 + (1.1 - 0.9) * draw())) or 1
            if pad > int(budget) + 1:
                pad = int(budget) + 1
            yield _new(WarpInstruction, (COMPUTE, 0, pad, ()))
            budget -= pad
        yield instruction


def zipf_indices(
    rng: random.Random, universe: int, hot_fraction: float = 0.1,
    hot_probability: float = 0.7, lanes: int = WARP_LANES,
) -> List[int]:
    """Skewed random indices: *hot_probability* of lanes land in the hot
    *hot_fraction* of the universe (histogram/page-view hot keys)."""
    hot_size = max(1, int(universe * hot_fraction))
    out = []
    for _ in range(lanes):
        if rng.random() < hot_probability:
            out.append(rng.randrange(hot_size))
        else:
            out.append(rng.randrange(universe))
    return out
