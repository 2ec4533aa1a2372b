"""Failure-path coverage for the GPU simulator.

Three guards keep a broken model or workload from hanging a sweep
forever; each must fail *loudly* with an actionable message:

* the ``max_cycles`` abort (misconfigured workload / runaway model),
* the deadlock detector (blocked warps but no pending events -- names
  the stuck SMs), and
* the LSU livelock guard (``MAX_RETRIES`` consecutive reservation
  failures on one transaction).
"""

from __future__ import annotations

import pytest

from repro.cache.interface import (
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.core.factory import l1d_config, make_l1d
from repro.gpu.config import fermi_like
from repro.gpu.simulator import GPUSimulator
from repro.workloads.benchmarks import benchmark
from repro.workloads.trace import TraceScale, load_instruction


class AlwaysRejectCache(L1DCacheModel):
    """An L1D that reports a structural hazard on every access."""

    name = "always-reject"

    def _access_impl(self, request, cycle):
        self.stats.reservation_fails += 1
        return AccessResult(
            AccessOutcome.RESERVATION_FAIL, cycle, (), request.block_addr
        )

    def fill(self, block_addr, cycle):  # pragma: no cover - never reached
        return FillResult(cycle, [], ())


def _small_machine(num_sms: int = 1):
    return fermi_like().with_overrides(num_sms=num_sms)


class TestMaxCyclesAbort:
    def test_abort_names_the_limit(self):
        scale = TraceScale.smoke()
        model = benchmark("ATAX", 1, scale.warps_per_sm, scale)
        sim = GPUSimulator(
            _small_machine(),
            l1d_factory=lambda: make_l1d(l1d_config("L1-SRAM")),
            warp_streams=model.streams(),
            warps_per_sm=scale.warps_per_sm,
            max_cycles=25,
        )
        with pytest.raises(RuntimeError, match=r"max_cycles=25"):
            sim.run()
        # the abort fires at the first advance past the budget (the clock
        # may have jumped to a pending event, but never runs unchecked)
        assert 25 < sim.cycle < 1000

    def test_generous_budget_completes(self):
        scale = TraceScale.smoke()
        model = benchmark("ATAX", 1, scale.warps_per_sm, scale)
        sim = GPUSimulator(
            _small_machine(),
            l1d_factory=lambda: make_l1d(l1d_config("L1-SRAM")),
            warp_streams=model.streams(),
            warps_per_sm=scale.warps_per_sm,
            max_cycles=10_000_000,
        )
        result = sim.run()
        assert result.instructions > 0


class TestDeadlockDetector:
    def _empty_stream_sim(self, num_sms: int) -> GPUSimulator:
        return GPUSimulator(
            _small_machine(num_sms),
            l1d_factory=lambda: make_l1d(l1d_config("L1-SRAM")),
            warp_streams=lambda sm_id, warp_id: [],
            warps_per_sm=2,
        )

    def test_blocked_warp_without_events_is_reported(self):
        sim = self._empty_stream_sim(num_sms=2)
        # warp 0 of SM 0 waits on a load whose response will never come
        sim.sms[0].warps[0].block_on(1)
        with pytest.raises(RuntimeError, match=r"deadlock .*SMs \[0\]"):
            sim.run()

    def test_error_names_every_stuck_sm(self):
        sim = self._empty_stream_sim(num_sms=3)
        sim.sms[0].warps[0].block_on(1)
        sim.sms[2].warps[1].block_on(1)
        with pytest.raises(RuntimeError, match=r"SMs \[0, 2\]"):
            sim.run()

    def test_empty_streams_alone_terminate_cleanly(self):
        result = self._empty_stream_sim(num_sms=2).run()
        assert result.instructions == 0


class TestLivelockGuard:
    def _rejecting_sim(self) -> GPUSimulator:
        stream = [load_instruction(0x40, [0])]
        return GPUSimulator(
            _small_machine(),
            l1d_factory=AlwaysRejectCache,
            warp_streams=lambda sm_id, warp_id: list(stream),
            warps_per_sm=1,
            max_cycles=10_000_000,
        )

    def test_perma_rejected_transaction_raises(self, monkeypatch):
        monkeypatch.setattr("repro.gpu.sm.MAX_RETRIES", 5)
        sim = self._rejecting_sim()
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run()
        # every attempt up to the guard was counted as a retry
        assert sim.sms[0].retries == 6

    def test_retries_accumulate_stall_accounting(self, monkeypatch):
        monkeypatch.setattr("repro.gpu.sm.MAX_RETRIES", 3)
        sim = self._rejecting_sim()
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run()
        sm = sim.sms[0]
        assert sm.l1d.stats.reservation_fails == sm.retries