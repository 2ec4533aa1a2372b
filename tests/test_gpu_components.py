"""Unit tests for coalescer, warps, GTO issue and arbitration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arbitration import Arbiter, Destination
from repro.core.factory import l1d_config, make_l1d
from repro.core.read_level_predictor import ReadLevel, ReadLevelPredictor
from repro.gpu.coalescer import coalesce, warp_addresses
from repro.gpu.config import fermi_like
from repro.gpu.simulator import GPUSimulator
from repro.gpu.warp import Warp
from repro.workloads.arena import PackedTraceArena
from repro.workloads.trace import compute_block, load_instruction
from tests.conftest import load, sampled_blocks, store


class TestCoalescer:
    def test_unit_stride_fully_coalesces(self):
        addrs = warp_addresses(0, 4)
        assert coalesce(addrs) == [0]

    def test_block_stride_fully_diverges(self):
        addrs = warp_addresses(0, 128)
        assert coalesce(addrs) == list(range(32))

    def test_misaligned_unit_stride_spans_two_blocks(self):
        addrs = warp_addresses(64, 4)
        assert coalesce(addrs) == [0, 1]

    def test_duplicates_merge(self):
        assert coalesce([0, 4, 0, 4]) == [0]

    @given(
        base=st.integers(min_value=0, max_value=1 << 30),
        stride=st.integers(min_value=0, max_value=4096),
    )
    @settings(max_examples=60)
    def test_every_address_covered(self, base, stride):
        """Property: every lane's address falls inside some emitted block."""
        addrs = warp_addresses(base, stride)
        blocks = set(coalesce(addrs))
        for addr in addrs:
            assert addr >> 7 in blocks
        assert 1 <= len(blocks) <= 32


class TestWarp:
    def _warp(self):
        arena = PackedTraceArena.from_streams("<empty>", 1, 1,
                                              lambda sm_id, warp_id: ())
        return Warp(0, arena, 0)

    def test_blocking_on_loads(self):
        warp = self._warp()
        warp.block_on(2)
        assert warp.blocked
        # eager retirement: the later data-ready cycle wins, whatever
        # the order the two loads retire in
        assert not warp.complete_transaction_at(80)
        assert warp.complete_transaction_at(50)
        assert warp.ready_at == 80
        assert not warp.blocked

    def test_completion_without_pending_raises(self):
        warp = self._warp()
        with pytest.raises(RuntimeError):
            warp.complete_transaction_at(10)


class TestSchedulers:
    """Greedy-then-oldest warp issue, driven through ``SM.try_issue``."""

    def _sm(self, num_warps):
        sim = GPUSimulator(
            fermi_like().with_overrides(num_sms=1),
            l1d_factory=lambda: make_l1d(l1d_config("L1-SRAM")),
            warp_streams=lambda sm_id, warp_id: [compute_block(1)] * 8,
            warps_per_sm=num_warps,
        )
        return sim.sms[0]

    def _issue(self, sm, cycle):
        """Id of the warp ``try_issue`` issued at *cycle*, or None."""
        before = [warp.instructions_issued for warp in sm.warps]
        if not sm.try_issue(cycle):
            return None
        (issued,) = [warp.warp_id for warp, count in zip(sm.warps, before)
                     if warp.instructions_issued != count]
        return issued

    def test_gto_sticks_to_current(self):
        sm = self._sm(3)
        assert self._issue(sm, 0) == 0
        assert self._issue(sm, 1) == 0  # greedy: still ready, still held
        sm.warps[0].outstanding = 1  # blocked on a load
        assert self._issue(sm, 2) == 1  # oldest ready warp, not warp 2
        sm.warps[0].outstanding = 0
        assert self._issue(sm, 3) == 1  # greedy beats oldest
        sm.warps[1].ready_at = 100
        assert self._issue(sm, 4) == 0  # oldest ready again

    def test_nothing_ready_issues_nothing(self):
        sm = self._sm(2)
        for warp in sm.warps:
            warp.ready_at = 50
        assert self._issue(sm, 0) is None
        assert self._issue(sm, 50) == 0


class TestArbitration:
    def _trained_predictor(self):
        predictor = ReadLevelPredictor()
        wm, worm = sampled_blocks(4), sampled_blocks(4, start=64)
        # sequential phases so the tiny sampler is not over-subscribed
        for round_ in range(100):
            predictor.observe(store(wm[round_ % 4] << 7, pc=0x50))  # WM
        for round_ in range(100):
            predictor.observe(load(worm[round_ % 4] << 7, pc=0x48))  # WORM
        for block in sampled_blocks(100, start=0x90000):
            predictor.observe(load(block << 7, pc=0x58))  # WORO
        return predictor

    def test_no_predictor_defaults(self):
        arbiter = Arbiter(None)
        assert arbiter.fill_destination(0x40).destination is Destination.SRAM
        assert arbiter.eviction_destination(0x40).destination is Destination.STT
        assert not arbiter.migrate_on_stt_write_hit()

    def test_wm_fills_to_sram(self):
        arbiter = Arbiter(self._trained_predictor())
        decision = arbiter.fill_destination(0x50)
        assert decision.destination is Destination.SRAM
        assert decision.level is ReadLevel.WM

    def test_worm_fills_to_stt(self):
        arbiter = Arbiter(self._trained_predictor())
        assert arbiter.fill_destination(0x48).destination is Destination.STT

    def test_woro_evictions_to_l2(self):
        arbiter = Arbiter(self._trained_predictor())
        decision = arbiter.eviction_destination(0x58)
        assert decision.destination is Destination.L2
        assert decision.level is ReadLevel.WORO

    def test_worm_evictions_to_stt(self):
        arbiter = Arbiter(self._trained_predictor())
        assert arbiter.eviction_destination(0x48).destination is Destination.STT

    def test_predictor_enables_migration(self):
        arbiter = Arbiter(self._trained_predictor())
        assert arbiter.migrate_on_stt_write_hit()


class TestTraceTypes:
    def test_compute_block_validation(self):
        with pytest.raises(ValueError):
            compute_block(0)

    def test_load_instruction_coalesces(self):
        instr = load_instruction(0x40, warp_addresses(0, 4))
        assert instr.transactions == (0,)
        assert instr.is_memory
        assert not compute_block(5).is_memory
