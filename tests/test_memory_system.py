"""Unit tests for interconnect, L2 banks, DRAM and the memory subsystem."""

import pytest

from repro.gpu.config import fermi_like
from repro.memory.dram import DRAMChannel
from repro.memory.interconnect import Interconnect
from repro.memory.l2cache import L2Bank
from repro.memory.subsystem import MemorySubsystem


@pytest.fixture
def config():
    return fermi_like()


class TestInterconnect:
    def test_base_latency(self, config):
        net = Interconnect(config)
        arrival, cycles = net.send_request(0, 100)
        assert cycles == net.request_flits + net.base_latency
        assert arrival == 100 + cycles

    def test_port_serialisation(self, config):
        net = Interconnect(config)
        first, _ = net.send_response(0, 100)
        second, _ = net.send_response(0, 100)
        assert second == first + net.response_flits

    def test_distinct_ports_independent(self, config):
        net = Interconnect(config)
        a, _ = net.send_request(0, 100)
        b, _ = net.send_request(1, 100)
        assert a == b

    def test_response_carries_data_flits(self, config):
        net = Interconnect(config)
        assert net.response_flits == 1 + 128 // config.flit_bytes

    def test_writeback_is_data_sized(self, config):
        net = Interconnect(config)
        net.send_writeback(0, 0)
        assert net.request_flits_sent == net.response_flits


class TestL2Bank:
    def test_miss_then_hit(self, config):
        bank = L2Bank(0, config)
        _, hit, _ = bank.access(0x1000, False, 0)
        assert not hit
        _, hit, _ = bank.access(0x1000, False, 100)
        assert hit

    def test_dirty_victim_reported(self, config):
        bank = L2Bank(0, config)
        sets, assoc = config.l2_sets, config.l2_assoc
        base = 0
        # fill one set with dirty lines, then displace
        for i in range(assoc + 1):
            block = (base + i * sets) * config.l2_num_banks
            _, _, victim = bank.access(block, True, i)
        assert victim != -1

    def test_bank_occupancy_queues(self, config):
        bank = L2Bank(0, config)
        first = bank.start_service(100)
        second = bank.start_service(100)
        assert second == first + config.l2_occupancy_cycles


class TestDRAM:
    def test_row_hit_faster_than_conflict(self, config):
        channel = DRAMChannel(0, config)
        cold = channel.access(0, 0)
        # same row again: row hit
        hit = channel.access(1, cold) - cold
        # far row in the same bank: conflict
        far = config.blocks_per_dram_row * config.dram_banks_per_channel * 3
        conflict = channel.access(far * 16, 10_000) - 10_000
        assert hit < conflict
        assert channel.row_hits >= 1
        assert channel.row_misses >= 2

    def test_controller_latency_applied(self, config):
        channel = DRAMChannel(0, config)
        completion = channel.access(0, 0)
        assert completion >= config.dram_controller_cycles

    def test_bus_serialises_bursts(self, config):
        channel = DRAMChannel(0, config)
        first = channel.access(0, 0)
        second = channel.access(1, 0)
        assert second >= first + channel.burst

    def test_row_hit_rate_property(self, config):
        channel = DRAMChannel(0, config)
        assert channel.row_hit_rate == 0.0
        channel.access(0, 0)
        channel.access(1, 500)
        assert 0.0 < channel.row_hit_rate <= 1.0


class TestSubsystem:
    def test_read_roundtrip_and_breakdown(self, config):
        mem = MemorySubsystem(config)
        completion, breakdown = mem.issue_read_sampled(0x1234, sm_id=0, cycle=0)
        assert completion > 0
        assert breakdown.network > 0
        assert breakdown.l2 > 0
        assert breakdown.dram > 0  # cold L2 miss goes to DRAM
        assert mem.stats.l2_misses == 1

    def test_second_read_hits_l2(self, config):
        mem = MemorySubsystem(config)
        first = mem.issue_read(0x1234, 0, 0)
        _, breakdown = mem.issue_read_sampled(0x1234, 0, first + 10)
        assert breakdown.dram == 0
        assert mem.stats.l2_hits == 1

    def test_l2_hit_latency_below_dram_latency(self, config):
        mem = MemorySubsystem(config)
        miss_done = mem.issue_read(0x999, 0, 0)
        miss_latency = miss_done
        hit_done = mem.issue_read(0x999, 0, miss_done)
        assert hit_done - miss_done < miss_latency

    def test_writebacks_counted(self, config):
        mem = MemorySubsystem(config)
        mem.issue_writeback(0x55, 0, 0)
        assert mem.stats.writebacks == 1

    def test_writeback_flits_counted_separately(self, config):
        """Dirty writebacks are data-sized but must not inflate the
        address-sized request_flits counter."""
        mem = MemorySubsystem(config)
        mem.issue_read(0x1, 0, 0)
        mem.issue_writeback(0x55, 0, 0)
        stats = mem.finalize_stats()
        assert stats.writeback_flits == mem.network.response_flits
        assert stats.request_flits == mem.network.request_flits
        assert stats.response_flits == mem.network.response_flits

    def test_flit_counters_reconcile_with_interconnect(self, config):
        """The interconnect's lifetime counters are the single source of
        truth: the stats split must sum back to them exactly."""
        mem = MemorySubsystem(config)
        for i in range(7):
            mem.issue_read(0x1000 + 16 * i, i % config.num_sms, 3 * i)
        for i in range(4):
            mem.issue_writeback(0x9000 + 16 * i, i % config.num_sms, 5 * i)
        stats = mem.finalize_stats()
        net = mem.network
        assert (
            stats.request_flits + stats.writeback_flits
            == net.request_flits_sent
        )
        assert stats.response_flits == net.response_flits_sent
        # and the split itself is exact: reads are address-sized, the
        # writebacks data-sized
        assert stats.request_flits == stats.reads * net.request_flits
        assert stats.writeback_flits == stats.writebacks * net.response_flits

    def test_slot_counters_match_sampled_breakdowns(self, config):
        """The fast path's integer slots must equal the sum of per-access
        breakdowns once materialized."""
        mem = MemorySubsystem(config)
        _, first = mem.issue_read_sampled(0x1, 0, 0)
        _, second = mem.issue_read_sampled(0x2, 0, 0)
        total = first + second
        stats = mem.finalize_stats()
        assert stats.latency.network == total.network
        assert stats.latency.l2 == total.l2
        assert stats.latency.dram == total.dram
        assert stats.latency.total > 0

    def test_latency_accumulates(self, config):
        mem = MemorySubsystem(config)
        mem.issue_read(0x1, 0, 0)
        mem.issue_read(0x2, 0, 0)
        assert mem.finalize_stats().latency.total > 0

    def test_finalize_collects_row_stats(self, config):
        mem = MemorySubsystem(config)
        mem.issue_read(0x1, 0, 0)
        stats = mem.finalize_stats()
        assert stats.dram_row_hits + stats.dram_row_misses >= 1
