"""Arbitration logic: the data-placement decision tree of Figure 9.

The arbitrator owns three placement decisions; everything else in the FUSE
controller (bank probing, queue management) is mechanism.  Extracting the
decisions here keeps them unit-testable against the paper's tree:

* **Fill destination** -- where does an incoming (missed) block land?
  With the read-level predictor: WM and WORO blocks go to SRAM (writes are
  cheap there, and WORO blocks will be thrown to L2 soon anyway); WORM and
  neutral/read-intensive blocks go to STT-MRAM.  Without a predictor
  (Hybrid / Base-FUSE / FA-FUSE) every fill lands in SRAM and the STT bank
  acts as a victim store.
* **Eviction destination** -- when SRAM evicts a line, WORO-predicted
  lines leave for L2; everything else migrates into STT-MRAM (through the
  swap buffer when the non-blocking datapath is enabled).
* **STT write-hit action** -- a store hitting STT-MRAM is a misprediction
  for Dy-FUSE, which migrates the line back to SRAM; configurations
  without the predictor write in place (eating the tag-queue flush).

The paper notes the arbitration circuit evaluates in under 1 ns -- below a
cache cycle -- so the decision itself adds no latency in the timing model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.read_level_predictor import ReadLevel, ReadLevelPredictor

__all__ = [
    "Arbiter", "ArbiterDecision", "Destination",
]


class Destination(enum.Enum):
    """Where the arbitrated data block should live next."""

    SRAM = "sram"
    STT = "stt"
    L2 = "l2"


@dataclass(frozen=True, slots=True)
class ArbiterDecision:
    """A placement decision plus the predicted level that motivated it."""

    destination: Destination
    level: Optional[ReadLevel]


#: every decision the tree can produce, built once: decisions are
#: immutable, so the arbiter hands out shared instances (picked by
#: identity tests on the level; hashing an enum member runs Python code)
_SRAM_UNPREDICTED = ArbiterDecision(Destination.SRAM, None)
_SRAM_WM = ArbiterDecision(Destination.SRAM, ReadLevel.WM)
_SRAM_WORO = ArbiterDecision(Destination.SRAM, ReadLevel.WORO)
_STT_UNPREDICTED = ArbiterDecision(Destination.STT, None)
_STT_WM = ArbiterDecision(Destination.STT, ReadLevel.WM)
_STT_WORM = ArbiterDecision(Destination.STT, ReadLevel.WORM)
_STT_NEUTRAL = ArbiterDecision(Destination.STT, ReadLevel.NEUTRAL)
_L2_WORO = ArbiterDecision(Destination.L2, ReadLevel.WORO)


class Arbiter:
    """Figure 9's decision tree, parameterised by predictor availability."""

    def __init__(self, predictor: Optional[ReadLevelPredictor] = None) -> None:
        self.predictor = predictor

    # ------------------------------------------------------------------
    def fill_destination(self, pc: int) -> ArbiterDecision:
        """Destination bank for a block about to be fetched by *pc*."""
        if self.predictor is None:
            return _SRAM_UNPREDICTED
        level = self.predictor.predict(pc)
        if level is ReadLevel.WM:
            return _SRAM_WM
        if level is ReadLevel.WORO:
            return _SRAM_WORO
        return _STT_WORM if level is ReadLevel.WORM else _STT_NEUTRAL

    def eviction_destination(self, fill_pc: int) -> ArbiterDecision:
        """Destination for a line being evicted from the SRAM bank."""
        if self.predictor is None:
            return _STT_UNPREDICTED
        level = self.predictor.predict(fill_pc)
        if level is ReadLevel.WORO:
            return _L2_WORO
        if level is ReadLevel.WM:
            return _STT_WM
        return _STT_WORM if level is ReadLevel.WORM else _STT_NEUTRAL

    def migrate_on_stt_write_hit(self) -> bool:
        """True when a store hitting STT-MRAM should migrate to SRAM."""
        return self.predictor is not None
