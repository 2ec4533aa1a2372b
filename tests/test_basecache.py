"""Unit tests for BaseCache and the SRAM / NVM / Oracle baselines."""

import pytest

from repro.cache.basecache import BaseCache
from repro.cache.interface import AccessOutcome
from repro.cache.oracle import OracleCache
from repro.core.factory import l1d_config, make_l1d
from tests.conftest import load, store


def byte_addr(block: int) -> int:
    return block << 7


class TestBasicPaths:
    def test_cold_miss_then_hit(self):
        cache = BaseCache(4, 2)
        result = cache.access(load(byte_addr(5)), 0)
        assert result.outcome is AccessOutcome.MISS
        cache.fill(5, 100)
        result = cache.access(load(byte_addr(5)), 200)
        assert result.outcome is AccessOutcome.HIT
        assert result.ready_cycle == 201

    def test_secondary_miss_merges(self):
        cache = BaseCache(4, 2)
        cache.access(load(byte_addr(5), warp_id=0), 0)
        result = cache.access(load(byte_addr(5), warp_id=1), 1)
        assert result.outcome is AccessOutcome.HIT_PENDING
        fill = cache.fill(5, 100)
        assert len(fill.completed) == 2

    def test_reservation_fail_on_full_mshr(self):
        cache = BaseCache(64, 4, mshr_entries=1)
        cache.access(load(byte_addr(1)), 0)
        result = cache.access(load(byte_addr(2)), 0)
        assert result.outcome is AccessOutcome.RESERVATION_FAIL
        assert cache.stats.reservation_fails == 1

    def test_reservation_fail_not_counted_as_access(self):
        cache = BaseCache(64, 4, mshr_entries=1)
        cache.access(load(byte_addr(1)), 0)
        cache.access(load(byte_addr(2)), 0)
        assert cache.stats.accesses == 1

    def test_all_ways_reserved_in_set(self):
        cache = BaseCache(1, 2)
        cache.access(load(byte_addr(1)), 0)
        cache.access(load(byte_addr(2)), 0)
        result = cache.access(load(byte_addr(3)), 0)
        assert result.outcome is AccessOutcome.RESERVATION_FAIL

    def test_dirty_eviction_produces_writeback(self):
        cache = BaseCache(1, 1)
        cache.access(store(byte_addr(1)), 0)
        cache.fill(1, 10)
        # primary was a store -> line dirty; next miss evicts it
        result = cache.access(load(byte_addr(2)), 20)
        assert result.outcome is AccessOutcome.MISS
        assert result.writebacks == (1,)
        assert cache.stats.dirty_writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = BaseCache(1, 1)
        cache.access(load(byte_addr(1)), 0)
        cache.fill(1, 10)
        result = cache.access(load(byte_addr(2)), 20)
        assert result.writebacks == ()


class TestTiming:
    def test_write_occupancy_blocks_bank(self):
        cache = BaseCache(4, 2, technology="stt")
        cache.access(store(byte_addr(4)), 0)
        cache.fill(4, 10)  # fill is a 5-cycle STT write: bank busy 10..15
        result = cache.access(load(byte_addr(4)), 11)
        # the load waits for the fill's occupancy before starting
        assert result.ready_cycle >= 15
        assert cache.stats.stt_write_stall_cycles > 0

    def test_pipelined_reads_do_not_stall(self):
        cache = BaseCache(4, 2)
        cache.access(load(byte_addr(4)), 0)
        cache.fill(4, 10)
        first = cache.access(load(byte_addr(4)), 20)
        second = cache.access(load(byte_addr(4)), 21)
        assert first.ready_cycle == 21
        assert second.ready_cycle == 22

    def test_stats_hit_miss_classification(self):
        cache = BaseCache(4, 2)
        cache.access(load(byte_addr(1)), 0)
        cache.fill(1, 5)
        cache.access(load(byte_addr(1)), 10)
        cache.access(store(byte_addr(1)), 11)
        stats = cache.stats
        assert stats.misses == 1
        assert stats.read_hits == 1
        assert stats.write_hits == 1
        assert stats.miss_rate == pytest.approx(1 / 3)


class TestFactories:
    def test_l1_sram_geometry(self):
        cache = make_l1d(l1d_config("L1-SRAM"))
        assert cache.tags.num_sets == 64
        assert cache.tags.assoc == 4
        assert cache.tags.num_lines * 128 == 32 * 1024

    def test_fa_sram_geometry(self):
        cache = make_l1d(l1d_config("FA-SRAM"))
        assert cache.tags.num_sets == 1
        assert cache.tags.assoc == 256

    def test_pure_nvm_geometry_and_timing(self):
        cache = make_l1d(l1d_config("L1-NVM"))
        assert cache.tags.num_lines * 128 == 128 * 1024
        assert cache.write_latency == 5
        assert cache.technology == "stt"

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            make_l1d(l1d_config("L1-SRAM").with_overrides(
                sram_kb=3, sram_assoc=7))

    def test_invalid_technology_rejected(self):
        with pytest.raises(ValueError, match="technology"):
            BaseCache(4, 2, technology="dram")


class TestOracle:
    def test_only_cold_misses(self):
        oracle = OracleCache()
        for block in range(50):
            result = oracle.access(load(byte_addr(block)), block)
            assert result.outcome is AccessOutcome.MISS
            oracle.fill(block, block + 100)
        for block in range(50):
            result = oracle.access(load(byte_addr(block)), 1000 + block)
            assert result.outcome is AccessOutcome.HIT

    def test_oracle_respects_mshr(self):
        oracle = OracleCache(mshr_entries=1)
        oracle.access(load(byte_addr(1)), 0)
        result = oracle.access(load(byte_addr(2)), 0)
        assert result.outcome is AccessOutcome.RESERVATION_FAIL

    def test_oracle_merges(self):
        oracle = OracleCache()
        oracle.access(load(byte_addr(1), warp_id=0), 0)
        result = oracle.access(load(byte_addr(1), warp_id=1), 0)
        assert result.outcome is AccessOutcome.HIT_PENDING
