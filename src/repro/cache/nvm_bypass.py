"""``By-NVM``: pure STT-MRAM L1D with dead-write bypassing.

Table I's ``By-NVM`` configuration spends the whole area budget on
STT-MRAM (128 KB, 256 sets x 4 ways) and integrates a dead-write predictor
in the spirit of DASCA (Ahn et al., HPCA 2014): a *dead write* is a block
that is written once (filled) but never re-referenced before eviction.
Filling such blocks into STT-MRAM wastes a 5-cycle, high-energy write, so
predicted-dead requests bypass the L1D entirely and are served from L2.

The predictor is the read-level predictor's sampler and history table
(:class:`repro.core.sampler.SamplingPredictor`) with a hit step of 1:
blocks from PCs whose sampled lines keep getting evicted with their ``U``
(used) bit clear accumulate high counter values and are classified dead.
Table II's per-workload bypass ratios are the emergent output of this
predictor and are reproduced by ``benchmarks/bench_table2_apki.py``.
"""

from __future__ import annotations

from repro.cache.basecache import BaseCache
from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine
from repro.core.sampler import SamplingPredictor, pc_signature

__all__ = [
    "ByNVMCache", "DeadWritePredictor",
]


class DeadWritePredictor(SamplingPredictor):
    """PC-indexed dead-write predictor (DASCA-style, simplified).

    Args:
        dead_threshold: counter value at or above which a PC's blocks are
            predicted dead.  Counters start at
            :data:`~repro.core.sampler.COUNTER_INIT` and move up on unused
            evictions, down by one on sampler re-references.
    """

    def __init__(self, dead_threshold: int = 10) -> None:
        super().__init__(1)
        self.dead_threshold = dead_threshold

    def is_dead(self, pc: int) -> bool:
        """True when a block fetched by *pc* should bypass the cache."""
        return self.counters[pc_signature(pc)] >= self.dead_threshold


class ByNVMCache(BaseCache):
    """Pure STT-MRAM L1D with dead-write bypass (``By-NVM``).

    Args:
        num_sets / assoc / mshr_entries / mshr_max_merge / name: as for
            :class:`BaseCache`; the bank is STT-MRAM.
        dead_threshold: the predictor's dead-PC threshold.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        mshr_entries: int = 32,
        mshr_max_merge: int = 8,
        dead_threshold: int = 10,
        name: str = "By-NVM",
    ) -> None:
        super().__init__(
            num_sets=num_sets,
            assoc=assoc,
            mshr_entries=mshr_entries,
            mshr_max_merge=mshr_max_merge,
            technology="stt",
            name=name,
        )
        self.predictor = DeadWritePredictor(dead_threshold=dead_threshold)
        self._observe = self.predictor.observe
        # a bypass is only legal when the block is neither resident nor
        # pending (otherwise it would create a stale copy); BaseCache
        # consults the predicate exactly there
        self._bypass_pc = self.predictor.is_dead

    @staticmethod
    def _score_eviction(stats: CacheStats, evicted: CacheLine) -> None:
        """Track how many resident blocks really were dead (diagnostics)."""
        if evicted.reads_observed == 0 and evicted.writes_observed == 0:
            stats.pred_false += 1  # kept a block that was never reused
        else:
            stats.pred_true += 1
