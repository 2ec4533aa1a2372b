"""Memory-request sampler (Section IV-B, Figure 11).

The sampler is a tiny 4-set x 8-way associative structure that observes
memory requests from a handful of *representative warps* -- the paper
exploits the fact that warps of a GPU kernel execute the same instructions,
so sampling 4 of 48 warps is enough to learn per-PC behaviour.

Each entry stores:

* ``V``   -- valid bit,
* ``U``   -- used bit, set when the sampled block is re-referenced,
* ``RP``  -- LRU state (3 bits in hardware, a logical timestamp here),
* ``Tag`` -- 15 partial bits of the block address,
* ``Signature`` -- 9 partial bits of the PC that inserted the block.

The sampler itself only reports events (hit / eviction-with-U); the
prediction history tables that interpret those events live with their
owners (:mod:`repro.core.read_level_predictor` and the dead-write predictor
in :mod:`repro.cache.nvm_bypass`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "DEFAULT_SIGNATURE_BITS", "DEFAULT_TAG_BITS", "SamplerObservation",
    "SamplerTable", "SaturatingCounterTable", "pc_signature",
]


#: Partial address bits stored in a sampler entry tag (paper: 15).
DEFAULT_TAG_BITS = 15

#: Partial PC bits used as the predictor signature (paper: 9).
DEFAULT_SIGNATURE_BITS = 9


def pc_signature(pc: int, bits: int = DEFAULT_SIGNATURE_BITS) -> int:
    """Hash a PC down to its predictor signature.

    A simple xor-fold keeps distinct nearby PCs distinct while using only
    *bits* bits, mimicking the partial-PC indexing of the hardware table.
    """
    mask = (1 << bits) - 1
    return (pc ^ (pc >> bits) ^ (pc >> (2 * bits))) & mask


@dataclass(slots=True)
class _SamplerEntry:
    valid: bool = False
    used: bool = False
    tag: int = -1
    signature: int = 0
    written_again: bool = False
    stamp: int = -1


@dataclass(slots=True)
class SamplerObservation:
    """What happened when the sampler observed one request.

    Attributes:
        hit: the sampled block was already tracked.
        hit_signature: signature of the entry that was hit (fill PC).
        hit_is_write: the observing access was a store.
        evicted_signature: signature of a victim entry pushed out to make
            room (None when an invalid way was used).
        evicted_used: the victim's ``U`` bit -- False means the block was
            inserted and never re-referenced, the tell-tale of WORO /
            dead-write behaviour.
    """

    hit: bool
    hit_signature: Optional[int] = None
    hit_is_write: bool = False
    evicted_signature: Optional[int] = None
    evicted_used: bool = False


class SamplerTable:
    """The 4x8 LRU sampler structure of Figure 11.

    Args:
        num_sets: sampler sets; the paper dedicates one set per sampled
            warp (4).
        assoc: entries per set (8).
        tag_bits: partial address bits kept per entry (15).
        signature_bits: partial PC bits kept per entry (9).
        sampled_warps: warp ids whose requests are observed.  Requests from
            other warps are ignored, exactly like the hardware.
    """

    def __init__(
        self,
        num_sets: int = 4,
        assoc: int = 8,
        tag_bits: int = DEFAULT_TAG_BITS,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        sampled_warps: Sequence[int] = (0, 12, 24, 36),
        block_sample_ratio: int = 4,
    ) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        if block_sample_ratio < 1:
            raise ValueError("block_sample_ratio must be >= 1")
        self.num_sets = num_sets
        self.assoc = assoc
        self.tag_bits = tag_bits
        self.signature_bits = signature_bits
        #: observe only 1-in-N blocks (hash-selected).  Sampling-based
        #: dead-block predictors track a subset of cache sets for exactly
        #: this reason: the tiny sampler must not alias away reuse whose
        #: distance exceeds its associativity (Khan et al., MICRO 2010).
        self.block_sample_ratio = block_sample_ratio
        self._tag_mask = (1 << tag_bits) - 1
        self._warp_to_set = {
            warp: idx % num_sets for idx, warp in enumerate(sampled_warps)
        }
        #: ``samples_warp(warp_id)``: True when requests from *warp_id*
        #: are observed (a bound builtin: predictors test it on every
        #: access before calling :meth:`observe`)
        self.samples_warp = self._warp_to_set.__contains__
        self._sets: List[List[_SamplerEntry]] = [
            [_SamplerEntry() for _ in range(assoc)] for _ in range(num_sets)
        ]
        self._tick = 0

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def observe(
        self, warp_id: int, block_addr: int, pc: int, is_write: bool
    ) -> Optional[SamplerObservation]:
        """Observe one request; returns None for non-sampled warps and
        non-sampled blocks."""
        set_idx = self._warp_to_set.get(warp_id)
        if set_idx is None:
            return None
        if self.block_sample_ratio > 1:
            folded = block_addr ^ (block_addr >> 7) ^ (block_addr >> 13)
            if folded % self.block_sample_ratio:
                return None

        self._tick += 1
        tag = block_addr & self._tag_mask
        ways = self._sets[set_idx]

        for entry in ways:
            if entry.valid and entry.tag == tag:
                entry.used = True
                entry.stamp = self._tick
                if is_write:
                    entry.written_again = True
                return SamplerObservation(
                    hit=True,
                    hit_signature=entry.signature,
                    hit_is_write=is_write,
                )

        # Miss: fill into an invalid way, or victimise the LRU entry.
        victim = None
        for entry in ways:
            if not entry.valid:
                victim = entry
                break
        if victim is None:
            victim = min(ways, key=lambda e: e.stamp)

        observation = SamplerObservation(
            hit=False,
            evicted_signature=victim.signature if victim.valid else None,
            evicted_used=victim.used if victim.valid else False,
        )
        victim.valid = True
        victim.used = False
        victim.written_again = False
        victim.tag = tag
        victim.signature = pc_signature(pc, self.signature_bits)
        victim.stamp = self._tick
        return observation

    def occupancy(self) -> int:
        """Total valid entries (for tests)."""
        return sum(
            1 for ways in self._sets for entry in ways if entry.valid
        )


class SaturatingCounterTable:
    """A table of n-bit saturating counters with optional status bits.

    This is the "prediction history table" substrate: 1024 entries of a
    4-bit counter plus a 1-bit R/W status in the read-level predictor
    (Table I), and a counter-only variant in the dead-write predictor.
    Counters initialise to *init_value* (8 in the paper) and saturate at
    ``2**counter_bits - 1``.
    """

    def __init__(
        self,
        entries: int = 1024,
        counter_bits: int = 4,
        init_value: int = 8,
    ) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.entries = entries
        self.max_value = (1 << counter_bits) - 1
        if not 0 <= init_value <= self.max_value:
            raise ValueError("init_value out of counter range")
        self.init_value = init_value
        self._counters = [init_value] * entries
        self._status_written = [False] * entries

    # a signature indexes entry ``signature % entries``
    def counter(self, signature: int) -> int:
        return self._counters[signature % self.entries]

    def is_written(self, signature: int) -> bool:
        return self._status_written[signature % self.entries]

    def increment(self, signature: int) -> None:
        idx = signature % self.entries
        if self._counters[idx] < self.max_value:
            self._counters[idx] += 1

    def decrement(self, signature: int) -> None:
        idx = signature % self.entries
        if self._counters[idx] > 0:
            self._counters[idx] -= 1

    def mark_written(self, signature: int) -> None:
        self._status_written[signature % self.entries] = True
