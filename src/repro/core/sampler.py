"""The sampling predictor substrate (Section IV-B, Figure 11, Table I).

Both PC-signature predictors in the repo -- FUSE's read-level predictor
(:mod:`repro.core.read_level_predictor`) and By-NVM's dead-write
predictor (:mod:`repro.cache.nvm_bypass`) -- are one piece of hardware:
a tiny 4-set x 8-way LRU *sampler* watching the requests of a handful of
representative warps, feeding a *prediction history table* of saturating
counters indexed by a partial-PC signature.  The paper exploits the fact
that warps of a GPU kernel execute the same instructions, so sampling 4
of 48 warps is enough to learn per-PC behaviour.

Each sampler entry holds a ``U`` (used) bit, its LRU position, 15 partial
bits of the block address and the 9-bit signature of the PC that
inserted the block.  Each history-table entry is a 4-bit counter
(initialised to 8) plus a 1-bit R/W status (initialised to R).  Training
on one sampled request:

* sampler **hit** -> the inserting PC's blocks get re-referenced: its
  counter falls by the predictor's hit step (saturating at 0).  A store
  hit also sets the PC's status bit to W.
* sampler **miss** -> the block replaces the set's LRU entry; a victim
  evicted with ``U == 0`` died unused, so its inserting PC's counter
  rises by one (saturating at :data:`COUNTER_MAX`).

The two predictors differ only in the hit step and in how they read the
trained table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from repro.cache.request import MemoryRequest

__all__ = [
    "BLOCK_SAMPLE_RATIO", "COUNTER_INIT", "COUNTER_MAX", "HISTORY_ENTRIES",
    "SAMPLED_WARPS", "SAMPLER_SETS", "SAMPLER_WAYS", "SIGNATURE_BITS",
    "SamplingPredictor", "TAG_BITS", "pc_signature",
]

#: sampler sets, one per sampled warp (Table I)
SAMPLER_SETS = 4

#: entries per sampler set (Table I)
SAMPLER_WAYS = 8

#: the representative warps whose requests the sampler observes;
#: requests from every other warp are ignored, exactly like the hardware
SAMPLED_WARPS = (0, 12, 24, 36)

#: partial address bits stored in a sampler entry's tag (Table I)
TAG_BITS = 15

#: partial PC bits of a predictor signature (Table I)
SIGNATURE_BITS = 9

#: prediction-history-table entries (Table I; the paper's prose once
#: says 512 -- see ARCHITECTURE.md, "Model notes").  A 9-bit signature
#: reaches only the first 512 of them.
HISTORY_ENTRIES = 1024

#: a history counter is 4 bits wide (Table I)
COUNTER_MAX = (1 << 4) - 1

#: initial history-counter value (Table I)
COUNTER_INIT = 8

#: the sampler observes only 1-in-N blocks (hash-selected).
#: Sampling-based dead-block predictors track a subset of cache sets for
#: exactly this reason: the tiny sampler must not alias away reuse whose
#: distance exceeds its associativity (Khan et al., MICRO 2010).
BLOCK_SAMPLE_RATIO = 4

_TAG_MASK = (1 << TAG_BITS) - 1
_SIGNATURE_MASK = (1 << SIGNATURE_BITS) - 1


def pc_signature(pc: int) -> int:
    """Hash a PC down to its predictor signature.

    A simple xor-fold keeps distinct nearby PCs distinct while using only
    :data:`SIGNATURE_BITS` bits, mimicking the partial-PC indexing of the
    hardware table.
    """
    return (
        pc ^ (pc >> SIGNATURE_BITS) ^ (pc >> (2 * SIGNATURE_BITS))
    ) & _SIGNATURE_MASK


class SamplingPredictor:
    """The Figure 11 sampler plus its prediction history table.

    Args:
        hit_step: how far a sampler hit lowers the inserting PC's
            counter.

    Attributes:
        counters: the history table's saturating counters, indexed by
            :func:`pc_signature`.
        written: the history table's R/W status bits (True = W).
    """

    def __init__(self, hit_step: int) -> None:
        if hit_step < 1:
            raise ValueError("hit_step must be >= 1")
        self.hit_step = hit_step
        self.counters: List[int] = [COUNTER_INIT] * HISTORY_ENTRIES
        self.written: List[bool] = [False] * HISTORY_ENTRIES
        #: sampled warp -> its sampler set: partial tag -> ``(signature,
        #: used)``, least recently touched first
        sets = [{} for _ in range(SAMPLER_SETS)]
        self._sets: Dict[int, Dict[int, Tuple[int, bool]]] = {
            warp: sets[index % SAMPLER_SETS]
            for index, warp in enumerate(SAMPLED_WARPS)
        }

    def observe(self, request: MemoryRequest) -> None:
        """Train on one L1D access (a no-op for non-sampled warps and
        blocks)."""
        ways = self._sets.get(request.warp_id)
        if ways is None:
            return
        block = request.block_addr
        if (block ^ (block >> 7) ^ (block >> 13)) % BLOCK_SAMPLE_RATIO:
            return
        tag = block & _TAG_MASK
        counters = self.counters
        entry = ways.pop(tag, None)
        if entry is not None:
            # hit: the block is re-referenced and becomes most recent
            signature = entry[0]
            ways[tag] = (signature, True)
            value = counters[signature] - self.hit_step
            counters[signature] = value if value > 0 else 0
            if request.is_write:
                self.written[signature] = True
            return
        if len(ways) >= SAMPLER_WAYS:
            # miss on a full set: the LRU entry leaves
            signature, used = ways.pop(next(iter(ways)))
            if not used and counters[signature] < COUNTER_MAX:
                counters[signature] += 1
        ways[tag] = (pc_signature(request.pc), False)
