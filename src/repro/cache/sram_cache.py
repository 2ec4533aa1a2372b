"""Factories for the SRAM baseline L1D configurations of Table I.

* ``L1-SRAM``: 32 KB, 64 sets x 4 ways, LRU, 1-cycle reads and writes --
  the normalisation baseline of every figure.
* ``FA-SRAM``: the same 32 KB reorganised as a single 256-way set.  The
  paper treats it as an *unrealistic* upper bound (30.6x area, 28.3x power
  of 4-way, Section III-B), so its timing here is idealised: single-cycle
  tag search regardless of associativity.
* ``L1-NVM``: Figure 3's "STT-MRAM GPU" -- the same area budget spent on
  pure STT-MRAM gives 4x capacity (128 KB) but 5-cycle blocking writes.
"""

from __future__ import annotations

from repro.cache.basecache import BaseCache
from repro.cache.request import BLOCK_SIZE

__all__ = [
    "make_fa_sram_cache", "make_pure_nvm_cache", "make_sram_cache",
]


def make_sram_cache(
    size_kb: int = 32,
    assoc: int = 4,
    mshr_entries: int = 32,
    mshr_max_merge: int = 8,
    name: str = "L1-SRAM",
) -> BaseCache:
    """Set-associative SRAM L1D (Table I ``L1-SRAM`` geometry by default)."""
    num_lines = size_kb * 1024 // BLOCK_SIZE
    if num_lines % assoc:
        raise ValueError(f"{size_kb}KB is not divisible into {assoc}-way sets")
    num_sets = num_lines // assoc
    return BaseCache(
        num_sets=num_sets,
        assoc=assoc,
        read_latency=1,
        write_latency=1,
        mshr_entries=mshr_entries,
        mshr_max_merge=mshr_max_merge,
        technology="sram",
        name=name,
    )


def make_fa_sram_cache(
    size_kb: int = 32,
    mshr_entries: int = 32,
    mshr_max_merge: int = 8,
    name: str = "FA-SRAM",
) -> BaseCache:
    """Fully-associative SRAM L1D (idealised timing, see module docs)."""
    num_lines = size_kb * 1024 // BLOCK_SIZE
    return BaseCache(
        num_sets=1,
        assoc=num_lines,
        read_latency=1,
        write_latency=1,
        mshr_entries=mshr_entries,
        mshr_max_merge=mshr_max_merge,
        technology="sram",
        name=name,
    )


def make_pure_nvm_cache(
    size_kb: int = 128,
    assoc: int = 4,
    read_latency: int = 1,
    write_latency: int = 5,
    mshr_entries: int = 32,
    mshr_max_merge: int = 8,
    name: str = "L1-NVM",
) -> BaseCache:
    """Pure STT-MRAM L1D without bypassing (Figure 3's "STT-MRAM GPU").

    Writes occupy the bank for the full 5-cycle write latency, which is the
    material-level penalty of rotating the MTJ free layer (Section II-B).
    """
    num_lines = size_kb * 1024 // BLOCK_SIZE
    if num_lines % assoc:
        raise ValueError(f"{size_kb}KB is not divisible into {assoc}-way sets")
    num_sets = num_lines // assoc
    return BaseCache(
        num_sets=num_sets,
        assoc=assoc,
        read_latency=read_latency,
        write_latency=write_latency,
        write_occupancy=write_latency,
        mshr_entries=mshr_entries,
        mshr_max_merge=mshr_max_merge,
        technology="stt",
        name=name,
    )
