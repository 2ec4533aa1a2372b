"""The read-level predictor (Section IV-B, Figure 11).

FUSE's data-placement decisions hinge on classifying each memory reference
into one of four *read levels* before the data arrives:

* ``WM``      -- write-multiple: the block will be updated again; it
  belongs in SRAM where writes are cheap.
* ``NEUTRAL`` -- read-intensive / undecided; STT-MRAM is fine (reads are
  as fast as SRAM there).
* ``WORM``    -- write-once-read-multiple: the ideal STT-MRAM tenant.
* ``WORO``    -- write-once-read-once: not worth caching at all; evict to
  L2 instead of migrating into STT-MRAM.

Mechanism (all sizes from Table I): a 4-set x 8-way sampler observes the
requests of four representative warps.  A 1024-entry prediction history
table keyed by a 9-bit PC signature holds a 4-bit saturating counter
(initialised to 8) and a 1-bit R/W status (initialised to R).

* sampler **hit**  -> the signature's blocks get re-referenced: counter--.
  A store hit additionally flips the status bit to W (the PC's blocks see
  multiple writes).
* sampler **eviction with U == 0** -> the signature's blocks die unused:
  counter++.

Classification of a PC with counter ``c`` (thresholds from Table I):
``c > unused_threshold (14)`` -> WORO; ``c < worm_threshold (1)`` -> WM if
status is W else WORM; anything between -> NEUTRAL (covers the
read-intensive class of Figure 6).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cache.request import MemoryRequest
from repro.core.sampler import (
    SamplerTable,
    SaturatingCounterTable,
    pc_signature,
)

__all__ = [
    "ReadLevel", "ReadLevelPredictor",
]


class ReadLevel(enum.Enum):
    """Predicted read level of a memory reference."""

    WM = "write-multiple"
    NEUTRAL = "neutral"
    WORM = "write-once-read-multiple"
    WORO = "write-once-read-once"


class ReadLevelPredictor:
    """PC-signature read-level predictor.

    Args:
        table_entries: prediction-history-table entries (Table I: 1024;
            the paper's prose says 512 -- see ARCHITECTURE.md, "Model notes").
        unused_threshold: counter above which a PC is WORO (Table I: 14).
        worm_threshold: counter below which a PC is WORM/WM (Table I: 1).
        counter_init: initial counter value (paper: 8).
        sampled_warps: warp ids observed by the sampler.
    """

    def __init__(
        self,
        sampler_sets: int = 4,
        sampler_assoc: int = 8,
        table_entries: int = 1024,
        unused_threshold: int = 14,
        worm_threshold: int = 1,
        counter_init: int = 8,
        counter_bits: int = 4,
        hit_decrement: int = 2,
        sampled_warps=(0, 12, 24, 36),
    ) -> None:
        if unused_threshold <= worm_threshold:
            raise ValueError("unused_threshold must exceed worm_threshold")
        if hit_decrement < 1:
            raise ValueError("hit_decrement must be >= 1")
        self.unused_threshold = unused_threshold
        self.worm_threshold = worm_threshold
        #: counter decrement per sampler hit.  The paper says the counter
        #: "decreases" on a hit without giving the step; a step of 2 makes
        #: one observed reuse outweigh one unused eviction, which is what
        #: keeps long-reuse-distance WORM blocks (whose sampler entries
        #: are often displaced between touches) from drifting into WORO.
        self.hit_decrement = hit_decrement
        self.sampler = SamplerTable(
            num_sets=sampler_sets,
            assoc=sampler_assoc,
            sampled_warps=sampled_warps,
        )
        self.table = SaturatingCounterTable(
            entries=table_entries,
            counter_bits=counter_bits,
            init_value=counter_init,
        )
        self.observations = 0
        self.sampler_hits = 0

    # ------------------------------------------------------------------
    def observe(self, request: MemoryRequest) -> None:
        """Train the predictor on one L1D access."""
        if not self.sampler.samples_warp(request.warp_id):
            return
        observation = self.sampler.observe(
            request.warp_id, request.block_addr, request.pc,
            request.is_write,
        )
        if observation is None:
            return
        self.observations += 1
        if observation.hit:
            self.sampler_hits += 1
            for _ in range(self.hit_decrement):
                self.table.decrement(observation.hit_signature)
            if observation.hit_is_write:
                self.table.mark_written(observation.hit_signature)
        elif (
            observation.evicted_signature is not None
            and not observation.evicted_used
        ):
            self.table.increment(observation.evicted_signature)

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> ReadLevel:
        """Classify the read level of references issued by *pc*."""
        signature = pc_signature(pc)
        counter = self.table.counter(signature)
        if counter > self.unused_threshold:
            return ReadLevel.WORO
        if counter < self.worm_threshold:
            if self.table.is_written(signature):
                return ReadLevel.WM
            return ReadLevel.WORM
        return ReadLevel.NEUTRAL

    # ------------------------------------------------------------------
    @staticmethod
    def score_eviction(
        predicted: Optional[ReadLevel], writes_observed: int
    ) -> str:
        """Score a prediction at eviction time (Figure 16 methodology).

        The paper marks a prediction **True** when a WM block saw multiple
        writes before eviction, or a WORM/WORO block saw only its singular
        (fill) write; **False** in the opposite cases; **Neutral** when the
        predictor abstained.

        Args:
            predicted: level recorded on the line at fill time.
            writes_observed: stores that hit the line while resident
                (excluding the allocating fill itself).

        Returns:
            ``"true"``, ``"false"`` or ``"neutral"``.
        """
        if predicted is None or predicted is ReadLevel.NEUTRAL:
            return "neutral"
        if predicted is ReadLevel.WM:
            return "true" if writes_observed >= 1 else "false"
        # WORM / WORO predictions promise a singular write.
        return "true" if writes_observed == 0 else "false"
