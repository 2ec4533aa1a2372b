"""Unit and invariant tests for the FUSE heterogeneous cache engine."""

import pytest

from repro.cache.interface import AccessOutcome
from repro.core.factory import l1d_config, make_l1d
from repro.core.fuse_cache import FuseCache, FuseFeatures
from tests.conftest import load, sampled_blocks, store


def byte_addr(block: int) -> int:
    return block << 7


def make_cache(features=None, **kwargs) -> FuseCache:
    defaults = dict(
        sram_kb=2, sram_assoc=2, stt_kb=8, stt_assoc=2,
        features=features or FuseFeatures.dy_fuse(),
    )
    defaults.update(kwargs)
    return FuseCache(**defaults)


def assert_single_copy(cache: FuseCache, block: int) -> None:
    """The paper's consistency invariant: at most one on-chip copy."""
    in_sram = cache.resident_in_sram(block)
    in_stt = cache.resident_in_stt(block)
    in_swap = cache.swap.contains(block, 10**9)
    # a swap-buffer copy coexists with its STT tag (the line is in
    # flight to STT), but never with an SRAM copy
    assert not (in_sram and in_stt), f"block {block:#x} in both banks"
    assert not (in_sram and in_swap)


class TestConfigurationLadder:
    def test_hybrid_features(self):
        cache = make_cache(FuseFeatures.hybrid())
        assert cache.predictor is None
        assert cache.approx is None
        assert cache.swap.num_entries == 0

    def test_base_fuse_features(self):
        cache = make_cache(FuseFeatures.base_fuse())
        assert cache.swap.num_entries == 3
        assert cache.approx is None

    def test_fa_fuse_features(self):
        cache = make_cache(FuseFeatures.fa_fuse())
        assert cache.approx is not None
        assert cache.stt.num_sets == 1

    def test_dy_fuse_features(self):
        cache = make_cache(FuseFeatures.dy_fuse())
        assert cache.predictor is not None

    def test_geometry_from_table1(self):
        cache = make_l1d(l1d_config("Dy-FUSE"))
        assert cache.sram.num_lines * 128 == 16 * 1024
        assert cache.stt.num_lines * 128 == 64 * 1024
        assert cache.stt.assoc == 512

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            make_l1d(l1d_config("Dy-FUSE").with_overrides(
                sram_kb=3, sram_assoc=7))


class TestBasicPaths:
    def test_miss_fill_hit(self):
        cache = make_cache()
        result = cache.access(load(byte_addr(1)), 0)
        assert result.outcome is AccessOutcome.MISS
        cache.fill(1, 100)
        result = cache.access(load(byte_addr(1)), 200)
        assert result.outcome is AccessOutcome.HIT
        assert_single_copy(cache, 1)

    def test_secondary_miss_merges(self):
        cache = make_cache()
        cache.access(load(byte_addr(1), warp_id=0), 0)
        result = cache.access(load(byte_addr(1), warp_id=1), 0)
        assert result.outcome is AccessOutcome.HIT_PENDING
        fill = cache.fill(1, 50)
        assert len(fill.completed) == 2

    def test_victim_placement_without_predictor(self):
        """Base-FUSE: fills land in SRAM, evictions migrate to STT."""
        cache = make_cache(FuseFeatures.base_fuse())
        # fill both ways of SRAM set 0, then displace one
        for block in (0, 16, 32):  # 16 sets in 2KB 2-way SRAM
            cache.access(load(byte_addr(block)), block)
            cache.fill(block, block + 50)
        assert cache.stats.migrations_sram_to_stt == 1
        migrated = 0  # LRU victim of set 0
        assert cache.resident_in_stt(migrated)
        assert not cache.resident_in_sram(migrated)
        # the migrated block still hits (from swap buffer or STT)
        result = cache.access(load(byte_addr(migrated)), 500)
        assert result.outcome is AccessOutcome.HIT

    def test_stt_read_hit_goes_through_tag_queue(self):
        cache = make_cache(FuseFeatures.base_fuse())
        for block in (0, 16, 32):
            cache.access(load(byte_addr(block)), block)
            cache.fill(block, block + 50)
        hits_before = cache.stats.stt_hits
        assert cache.tag_queue.head_completion(10_000) is None
        cache.access(load(byte_addr(0)), 10_000)
        assert cache.stats.stt_hits == hits_before + 1
        # the read is the queue's one pending operation
        done = cache.tag_queue.head_completion(10_000)
        assert done is not None and done > 10_000
        assert cache.tag_queue.head_completion(done) is None


class TestWriteHitOnSTT:
    def _fill_into_stt(self, cache, block):
        """Drive a block into the STT bank via the victim path."""
        set_span = cache.sram.num_sets
        cache.access(load(byte_addr(block)), 0)
        cache.fill(block, 10)
        for extra in (block + set_span, block + 2 * set_span):
            cache.access(load(byte_addr(extra)), 100 + extra)
            cache.fill(extra, 200 + extra)
        assert cache.resident_in_stt(block)

    def test_write_in_place_flushes_queue(self):
        cache = make_cache(FuseFeatures.fa_fuse())
        self._fill_into_stt(cache, 0)
        flushes_before = cache.stats.tag_queue_flushes
        result = cache.access(store(byte_addr(0)), 50_000)
        assert result.outcome is AccessOutcome.HIT
        assert cache.stats.tag_queue_flushes == flushes_before + 1

    def test_dy_fuse_migrates_back_to_sram(self):
        cache = make_cache(FuseFeatures.dy_fuse())
        self._fill_into_stt(cache, 0)
        result = cache.access(store(byte_addr(0)), 50_000)
        assert result.outcome is AccessOutcome.HIT
        assert cache.stats.migrations_stt_to_sram == 1
        assert cache.resident_in_sram(0)
        assert not cache.resident_in_stt(0)
        assert_single_copy(cache, 0)


class TestBlockingHybrid:
    def test_stt_write_blocks_whole_cache(self):
        cache = make_cache(FuseFeatures.hybrid())
        # force an SRAM eviction -> 5-cycle blocking STT write
        for block in (0, 16, 32):
            cache.access(load(byte_addr(block)), 0)
            cache.fill(block, 1)
        assert cache._cache_busy_until > 1
        result = cache.access(load(byte_addr(0)), 2)
        assert result.outcome is AccessOutcome.RESERVATION_FAIL
        assert cache.stats.stt_write_stall_cycles > 0

    def test_cache_accepts_after_write_completes(self):
        cache = make_cache(FuseFeatures.hybrid())
        for block in (0, 16, 32):
            cache.access(load(byte_addr(block)), 0)
            cache.fill(block, 1)
        after = cache._cache_busy_until
        result = cache.access(load(byte_addr(32)), after + 1)
        assert result.outcome is AccessOutcome.HIT


class TestStructuralHazards:
    def test_swap_buffer_exhaustion_stalls(self):
        cache = make_cache(FuseFeatures.base_fuse(), swap_entries=1)
        # two back-to-back SRAM evictions at the same cycle: the second
        # cannot stage
        blocks = [0, 16, 32, 48]
        outcomes = []
        for block in blocks:
            result = cache.access(load(byte_addr(block)), 0)
            outcomes.append(result.outcome)
            if result.outcome is AccessOutcome.MISS:
                cache.fill(block, 0)
        assert AccessOutcome.RESERVATION_FAIL in outcomes or (
            cache.stats.swap_buffer_full_events >= 0
        )

    def test_mshr_full_rejects(self):
        cache = make_cache(mshr_entries=1)
        cache.access(load(byte_addr(1)), 0)
        result = cache.access(load(byte_addr(2)), 0)
        assert result.outcome is AccessOutcome.RESERVATION_FAIL


class TestPredictorIntegration:
    def test_wm_fills_route_to_sram(self):
        cache = make_cache(FuseFeatures.dy_fuse())
        hot = sampled_blocks(4)
        # train pc 0x50 to WM: hot re-stored blocks
        for round_ in range(100):
            cache.predictor.observe(store(hot[round_ % 4] << 7, pc=0x50))
        cache.access(store(byte_addr(100), pc=0x50), 0)
        cache.fill(100, 10)
        assert cache.resident_in_sram(100)
        assert not cache.resident_in_stt(100)

    def test_worm_fills_route_to_stt(self):
        cache = make_cache(FuseFeatures.dy_fuse())
        hot = sampled_blocks(4)
        for round_ in range(100):
            cache.predictor.observe(load(hot[round_ % 4] << 7, pc=0x48))
        cache.access(load(byte_addr(100), pc=0x48), 0)
        cache.fill(100, 10)
        assert cache.resident_in_stt(100)

    def test_flush_metadata_scores_resident_lines(self):
        cache = make_cache(FuseFeatures.dy_fuse())
        cache.access(load(byte_addr(1)), 0)
        cache.fill(1, 10)
        cache.flush_metadata()
        stats = cache.stats
        assert stats.pred_true + stats.pred_false + stats.pred_neutral >= 1


class TestSingleCopyInvariant:
    def test_random_mix_maintains_invariant(self):
        import random

        rng = random.Random(42)
        cache = make_cache()
        touched = set()
        for step in range(600):
            block = rng.randrange(64)
            touched.add(block)
            is_store = rng.random() < 0.3
            request = store(byte_addr(block)) if is_store else load(byte_addr(block))
            result = cache.access(request, step * 10)
            if result.outcome is AccessOutcome.MISS:
                cache.fill(block, step * 10 + 5)
            for check in touched:
                assert_single_copy(cache, check)
