"""Unit tests for the sampling predictor substrate, the read-level
predictor and the dead-write predictor, all at Table I's production
sampling (warps 0/12/24/36, the 1-in-4 block hash)."""

import pytest

from repro.cache.nvm_bypass import DeadWritePredictor
from repro.core import sampler as table_i
from repro.core.read_level_predictor import ReadLevel, ReadLevelPredictor
from repro.core.sampler import (
    COUNTER_INIT,
    COUNTER_MAX,
    SAMPLED_WARPS,
    SAMPLER_WAYS,
    SamplingPredictor,
    pc_signature,
)
from tests.conftest import load, sampled_blocks, store


def addr(block: int) -> int:
    return block << 7


def counter(predictor, pc: int) -> int:
    return predictor.counters[pc_signature(pc)]


def untouched(predictor) -> bool:
    return (all(value == COUNTER_INIT for value in predictor.counters)
            and not any(predictor.written))


class TestSampler:
    def test_table_i_sizes(self):
        assert table_i.SAMPLER_SETS == 4
        assert table_i.SAMPLER_WAYS == 8
        assert table_i.SAMPLED_WARPS == (0, 12, 24, 36)
        assert table_i.TAG_BITS == 15
        assert table_i.SIGNATURE_BITS == 9
        assert table_i.HISTORY_ENTRIES == 1024
        assert table_i.COUNTER_MAX == 15
        assert table_i.COUNTER_INIT == 8
        predictor = SamplingPredictor(1)
        assert len(predictor.counters) == table_i.HISTORY_ENTRIES
        assert untouched(predictor)

    def test_signature_is_nine_bits(self):
        signatures = {pc_signature(pc) for pc in range(0, 1 << 16, 8)}
        assert max(signatures) < 1 << 9
        assert pc_signature(0x40) != pc_signature(0x48)

    @pytest.mark.parametrize("warp", SAMPLED_WARPS)
    def test_sampled_warps_train(self, warp):
        predictor = SamplingPredictor(1)
        for block in sampled_blocks(SAMPLER_WAYS + 1):
            predictor.observe(load(addr(block), pc=0x40, warp_id=warp))
        assert counter(predictor, 0x40) == COUNTER_INIT + 1

    def test_non_sampled_warp_ignored(self):
        predictor = SamplingPredictor(1)
        for warp in (1, 7, 11, 13, 47):
            for block in sampled_blocks(40):
                predictor.observe(load(addr(block), pc=0x40, warp_id=warp))
                predictor.observe(load(addr(block), pc=0x40, warp_id=warp))
        assert untouched(predictor)

    def test_miss_then_hit(self):
        predictor = SamplingPredictor(1)
        block = sampled_blocks(1)[0]
        predictor.observe(load(addr(block), pc=0x40))
        assert untouched(predictor)  # a miss into a free way
        predictor.observe(load(addr(block), pc=0x40))
        assert counter(predictor, 0x40) == COUNTER_INIT - 1

    def test_block_sampling_filters(self):
        admitted = set(sampled_blocks(64))
        rejected = [b for b in range(max(admitted)) if b not in admitted]
        assert len(admitted) < len(rejected)  # about 1 in 4 is sampled
        predictor = SamplingPredictor(1)
        for block in rejected:
            predictor.observe(store(addr(block), pc=0x40))
            predictor.observe(store(addr(block), pc=0x40))
        assert untouched(predictor)

    def test_eviction_reports_unused(self):
        predictor = SamplingPredictor(1)
        blocks = sampled_blocks(SAMPLER_WAYS + 1)
        for block in blocks[:SAMPLER_WAYS]:
            predictor.observe(load(addr(block), pc=0x40))
        assert untouched(predictor)  # filling free ways evicts nothing
        predictor.observe(load(addr(blocks[-1]), pc=0x80))
        assert counter(predictor, 0x40) == COUNTER_INIT + 1
        assert counter(predictor, 0x80) == COUNTER_INIT

    def test_eviction_reports_used(self):
        predictor = SamplingPredictor(1)
        first, *others = sampled_blocks(SAMPLER_WAYS + 1)
        predictor.observe(load(addr(first), pc=0x40))
        predictor.observe(load(addr(first), pc=0x40))  # U set
        for block in others:
            predictor.observe(load(addr(block), pc=0x80))
        # the used victim belongs to 0x40: only the hit moved its counter
        assert counter(predictor, 0x40) == COUNTER_INIT - 1
        assert counter(predictor, 0x80) == COUNTER_INIT

    def test_victim_is_least_recently_touched(self):
        predictor = SamplingPredictor(1)
        blocks = sampled_blocks(SAMPLER_WAYS + 1)
        predictor.observe(load(addr(blocks[0]), pc=0x40))
        for block in blocks[1:SAMPLER_WAYS]:
            predictor.observe(load(addr(block), pc=0x80))
        predictor.observe(load(addr(blocks[0]), pc=0x40))  # now MRU
        predictor.observe(load(addr(blocks[-1]), pc=0x80))
        assert counter(predictor, 0x80) == COUNTER_INIT + 1  # blocks[1]
        predictor.observe(load(addr(blocks[0]), pc=0x40))  # still tracked
        assert counter(predictor, 0x40) == COUNTER_INIT - 2

    def test_tags_keep_fifteen_bits(self):
        block = next(b for b in sampled_blocks(256)
                     if sampled_blocks(1, b + (1 << 15)) == [b + (1 << 15)])
        predictor = SamplingPredictor(1)
        predictor.observe(load(addr(block), pc=0x40))
        predictor.observe(load(addr(block + (1 << 15)), pc=0x80))
        # the alias hits the entry 0x40 inserted
        assert counter(predictor, 0x40) == COUNTER_INIT - 1

    def test_write_hit_flag(self):
        predictor = SamplingPredictor(1)
        block, other = sampled_blocks(2)
        predictor.observe(load(addr(block), pc=0x40))
        predictor.observe(load(addr(block), pc=0x40))
        assert not predictor.written[pc_signature(0x40)]
        predictor.observe(load(addr(other), pc=0x48))
        predictor.observe(store(addr(other), pc=0x50))  # store hit
        assert predictor.written[pc_signature(0x48)]  # the inserting PC's
        assert not predictor.written[pc_signature(0x50)]

    def test_hit_step_validated(self):
        with pytest.raises(ValueError):
            SamplingPredictor(0)


class TestCounterTable:
    def test_saturation(self):
        predictor = SamplingPredictor(1)
        for block in sampled_blocks(400, start=0x100000):
            predictor.observe(load(addr(block), pc=0x40))
        assert counter(predictor, 0x40) == COUNTER_MAX
        predictor = SamplingPredictor(1)
        hot = sampled_blocks(4)
        for round_ in range(40):
            predictor.observe(load(addr(hot[round_ % 4]), pc=0x40))
        assert counter(predictor, 0x40) == 0

    def test_status_bit(self):
        predictor = SamplingPredictor(1)
        assert not any(predictor.written)  # every entry starts at R
        block = sampled_blocks(1)[0]
        predictor.observe(store(addr(block), pc=0x48))
        assert not predictor.written[pc_signature(0x48)]  # a fill is no hit
        predictor.observe(store(addr(block), pc=0x48))
        assert predictor.written[pc_signature(0x48)]
        assert sum(predictor.written) == 1

    def test_invalid_init(self):
        # the initial value must fit the 4-bit counter
        assert 0 <= COUNTER_INIT <= COUNTER_MAX


@pytest.mark.parametrize("make, step", [
    (ReadLevelPredictor, 2),
    (DeadWritePredictor, 1),
], ids=["read-level", "dead-write"])
def test_sampler_hit_lowers_the_inserting_pc_by_its_step(make, step):
    predictor = make()
    assert predictor.hit_step == step
    block = sampled_blocks(1)[0]
    predictor.observe(load(addr(block), pc=0x40))
    predictor.observe(load(addr(block), pc=0x80))  # hit on 0x40's entry
    assert counter(predictor, 0x40) == COUNTER_INIT - step
    assert counter(predictor, 0x80) == COUNTER_INIT


class TestReadLevelPredictor:
    def test_initial_prediction_is_neutral(self):
        predictor = ReadLevelPredictor()
        assert predictor.predict(0x4000) is ReadLevel.NEUTRAL

    def test_unused_blocks_become_woro(self):
        predictor = ReadLevelPredictor()
        # a stream of never-reused blocks from one PC
        for block in sampled_blocks(400, start=0x100000):
            predictor.observe(load(addr(block), pc=0x40))
        assert predictor.predict(0x40) is ReadLevel.WORO

    def test_reused_read_blocks_become_worm(self):
        predictor = ReadLevelPredictor()
        hot = sampled_blocks(4)  # four hot blocks, re-read often
        for round_ in range(100):
            predictor.observe(load(addr(hot[round_ % 4]), pc=0x48))
        assert predictor.predict(0x48) is ReadLevel.WORM

    def test_rewritten_blocks_become_wm(self):
        predictor = ReadLevelPredictor()
        hot = sampled_blocks(4)
        for round_ in range(100):
            predictor.observe(store(addr(hot[round_ % 4]), pc=0x50))
        assert predictor.predict(0x50) is ReadLevel.WM

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            ReadLevelPredictor(unused_threshold=1)

    def test_scoring_rules(self):
        score = ReadLevelPredictor.score_eviction
        assert score(ReadLevel.WM, writes_observed=3) == "true"
        assert score(ReadLevel.WM, writes_observed=0) == "false"
        assert score(ReadLevel.WORM, writes_observed=0) == "true"
        assert score(ReadLevel.WORM, writes_observed=2) == "false"
        assert score(ReadLevel.WORO, writes_observed=0) == "true"
        assert score(ReadLevel.NEUTRAL, writes_observed=5) == "neutral"
        assert score(None, writes_observed=0) == "neutral"


class TestDeadWritePredictor:
    def test_streaming_pc_predicted_dead(self):
        predictor = DeadWritePredictor()
        for block in sampled_blocks(400, start=0x200000):
            predictor.observe(store(addr(block), pc=0x60))
        assert predictor.is_dead(0x60)

    def test_reused_pc_predicted_alive(self):
        predictor = DeadWritePredictor()
        hot = sampled_blocks(4)
        for round_ in range(200):
            predictor.observe(load(addr(hot[round_ % 4]), pc=0x68))
        assert not predictor.is_dead(0x68)

    def test_initially_alive(self):
        predictor = DeadWritePredictor()
        assert not predictor.is_dead(0x1234)

    def test_threshold(self):
        predictor = DeadWritePredictor(dead_threshold=COUNTER_INIT)
        assert predictor.is_dead(0x1234)
