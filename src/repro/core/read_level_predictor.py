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

Mechanism: the sampler and prediction history table of
:class:`repro.core.sampler.SamplingPredictor` (all sizes from Table I),
trained with a hit step of 2:

* sampler **hit**  -> the signature's blocks get re-referenced: counter
  -= 2.  A store hit additionally flips the status bit to W (the PC's
  blocks see multiple writes).
* sampler **eviction with U == 0** -> the signature's blocks die unused:
  counter++.

Classification of a PC with counter ``c`` (thresholds from Table I):
``c > unused_threshold (14)`` -> WORO; ``c < WORM_THRESHOLD (1)`` -> WM
if status is W else WORM; anything between -> NEUTRAL (covers the
read-intensive class of Figure 6).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.sampler import SamplingPredictor, pc_signature

__all__ = [
    "ReadLevel", "ReadLevelPredictor", "WORM_THRESHOLD",
]

#: a counter below this makes its PC WORM or WM (Table I)
WORM_THRESHOLD = 1

#: counter step per sampler hit.  The paper says the counter "decreases"
#: on a hit without giving the step; a step of 2 makes one observed reuse
#: outweigh one unused eviction, which is what keeps long-reuse-distance
#: WORM blocks (whose sampler entries are often displaced between
#: touches) from drifting into WORO.
HIT_STEP = 2


class ReadLevel(enum.Enum):
    """Predicted read level of a memory reference."""

    WM = "write-multiple"
    NEUTRAL = "neutral"
    WORM = "write-once-read-multiple"
    WORO = "write-once-read-once"


class ReadLevelPredictor(SamplingPredictor):
    """PC-signature read-level predictor.

    Args:
        unused_threshold: counter above which a PC is WORO (Table I: 14).

    Raises:
        ValueError: when *unused_threshold* does not exceed
            :data:`WORM_THRESHOLD`.
    """

    def __init__(self, unused_threshold: int = 14) -> None:
        if unused_threshold <= WORM_THRESHOLD:
            raise ValueError("unused_threshold must exceed WORM_THRESHOLD")
        super().__init__(HIT_STEP)
        self.unused_threshold = unused_threshold

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> ReadLevel:
        """Classify the read level of references issued by *pc*."""
        signature = pc_signature(pc)
        counter = self.counters[signature]
        if counter > self.unused_threshold:
            return ReadLevel.WORO
        if counter < WORM_THRESHOLD:
            if self.written[signature]:
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
