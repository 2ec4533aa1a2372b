"""``By-NVM``: pure STT-MRAM L1D with dead-write bypassing.

Table I's ``By-NVM`` configuration spends the whole area budget on
STT-MRAM (128 KB, 256 sets x 4 ways) and integrates a dead-write predictor
in the spirit of DASCA (Ahn et al., HPCA 2014): a *dead write* is a block
that is written once (filled) but never re-referenced before eviction.
Filling such blocks into STT-MRAM wastes a 5-cycle, high-energy write, so
predicted-dead requests bypass the L1D entirely and are served from L2.

The predictor reuses the PC-signature sampler substrate of
:mod:`repro.core.sampler`: blocks from PCs whose sampled lines keep getting
evicted with their ``U`` (used) bit clear accumulate high counter values
and are classified dead.  Table II's per-workload bypass ratios are the
emergent output of this predictor and are reproduced by
``benchmarks/bench_table2_apki.py``.
"""

from __future__ import annotations

from repro.cache.basecache import BaseCache
from repro.cache.request import BLOCK_SIZE, MemoryRequest
from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine
from repro.core.sampler import SamplerTable, SaturatingCounterTable, pc_signature

__all__ = [
    "ByNVMCache", "DeadWritePredictor",
]


class DeadWritePredictor:
    """PC-indexed dead-write predictor (DASCA-style, simplified).

    Args:
        dead_threshold: counter value at or above which a PC's blocks are
            predicted dead.  Counters start at ``init_value`` (8) and move
            up on unused evictions, down on sampler re-references.
        sampled_warps: warps observed by the sampler.
    """

    def __init__(
        self,
        table_entries: int = 1024,
        dead_threshold: int = 10,
        counter_bits: int = 4,
        init_value: int = 8,
        sampled_warps=(0, 12, 24, 36),
    ) -> None:
        self.dead_threshold = dead_threshold
        self.sampler = SamplerTable(sampled_warps=sampled_warps)
        self.table = SaturatingCounterTable(
            entries=table_entries,
            counter_bits=counter_bits,
            init_value=init_value,
        )

    def observe(self, request: MemoryRequest) -> None:
        """Train on one request (no-op for non-sampled warps)."""
        if not self.sampler.samples_warp(request.warp_id):
            return
        observation = self.sampler.observe(
            request.warp_id, request.block_addr, request.pc,
            request.is_write,
        )
        if observation is None:
            return
        if observation.hit:
            # Re-reference: blocks from this PC are alive.
            self.table.decrement(observation.hit_signature)
        elif observation.evicted_signature is not None and not observation.evicted_used:
            # Evicted without reuse: blocks from that PC look dead.
            self.table.increment(observation.evicted_signature)

    def is_dead(self, pc: int) -> bool:
        """True when a block fetched by *pc* should bypass the cache."""
        return self.table.counter(pc_signature(pc)) >= self.dead_threshold


class ByNVMCache(BaseCache):
    """128 KB pure STT-MRAM L1D with dead-write bypass (``By-NVM``)."""

    def __init__(
        self,
        size_kb: int = 128,
        assoc: int = 4,
        read_latency: int = 1,
        write_latency: int = 5,
        mshr_entries: int = 32,
        mshr_max_merge: int = 8,
        dead_threshold: int = 10,
        sampled_warps=(0, 12, 24, 36),
        name: str = "By-NVM",
    ) -> None:
        num_lines = size_kb * 1024 // BLOCK_SIZE
        if num_lines % assoc:
            raise ValueError(f"{size_kb}KB not divisible into {assoc}-way sets")
        super().__init__(
            num_sets=num_lines // assoc,
            assoc=assoc,
            read_latency=read_latency,
            write_latency=write_latency,
            write_occupancy=write_latency,
            mshr_entries=mshr_entries,
            mshr_max_merge=mshr_max_merge,
            technology="stt",
            name=name,
        )
        self.predictor = DeadWritePredictor(
            dead_threshold=dead_threshold, sampled_warps=sampled_warps
        )
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
