"""Invariants of the flattened per-access path (SM -> L1D -> memory).

The hot path trades helper calls for inline arithmetic and shared
objects; these tests pin what that trade must not break:

* a pooled :class:`MemoryRequest` re-targeted by the SM carries the
  ``block_addr`` / ``is_write`` slots of its new transaction;
* the shared :data:`~repro.cache.tag_array.UNALLOCATED` line is never
  written and never handed out for a valid or reserved way;
* ``MemorySubsystem.issue_read`` / ``issue_writeback`` do exactly what
  composing the per-hop component calls does;
* the calls-per-access counter behind ``repro profile`` and the
  throughput gate is deterministic.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib
import random

from hypothesis import given, settings, strategies as st

from repro.cache.interface import (
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.cache.request import AccessType, MemoryRequest
from repro.cache.tag_array import UNALLOCATED, CacheLine, TagArray
from repro.cli import main
from repro.core.factory import l1d_config, make_l1d
from repro.engine.spec import RunSpec, execute_spec
from repro.gpu.config import fermi_like
from repro.gpu.simulator import GPUSimulator
from repro.memory.subsystem import MemorySubsystem
from repro.telemetry.callcount import profile_run
from repro.workloads.benchmarks import benchmark
from repro.workloads.trace import (
    TraceScale,
    load_instruction,
    store_instruction,
)


class RecordingHitCache(L1DCacheModel):
    """An L1D that hits on everything and records what it was shown."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def _access_impl(self, request, cycle):
        self.seen.append(
            (request, request.address, request.block_addr, request.is_write)
        )
        return AccessResult(AccessOutcome.HIT, cycle + 1, (), request.block_addr)

    def fill(self, block_addr, cycle):  # pragma: no cover - never missed
        return FillResult(cycle, [], ())


class TestPooledRequests:
    def test_store_recycled_as_load_to_a_new_address(self):
        cache = RecordingHitCache()
        streams = {
            0: [store_instruction(0x10, [0x1000]),
                load_instruction(0x20, [0x8000])],
        }
        sim = GPUSimulator(
            fermi_like().with_overrides(num_sms=1),
            l1d_factory=lambda: cache,
            warp_streams=lambda sm, warp: streams.get(warp, []),
            warps_per_sm=1,
        )
        sim.run()
        (first, addr1, block1, write1), (second, addr2, block2, write2) = (
            cache.seen
        )
        # the store's request went back to the pool and was re-targeted
        assert second is first
        assert (addr1, block1, write1) == (0x1000, 0x1000 >> 7, True)
        assert (addr2, block2, write2) == (0x8000, 0x8000 >> 7, False)
        assert second.access_type is AccessType.LOAD
        assert cache.stats.write_accesses == 1
        assert cache.stats.read_accesses == 1

    def test_constructor_derives_the_slots(self):
        request = MemoryRequest(address=0x1234, access_type=AccessType.STORE)
        assert request.block_addr == 0x1234 >> 7
        assert request.is_write


def _pristine(line: CacheLine) -> bool:
    return line == CacheLine()


def _run_machine(config: str) -> GPUSimulator:
    scale = TraceScale.smoke()
    model = benchmark("ATAX", 2, scale.warps_per_sm, scale)
    sim = GPUSimulator(
        fermi_like().with_overrides(num_sms=2),
        l1d_factory=lambda: make_l1d(l1d_config(config)),
        warp_streams=model.streams(),
        warps_per_sm=scale.warps_per_sm,
    )
    sim.run()
    return sim


def _tag_arrays(sim: GPUSimulator):
    for sm in sim.sms:
        for attr in ("tags", "sram", "stt"):
            tags = getattr(sm.l1d, attr, None)
            if tags is not None:
                yield tags
    for bank in sim.memory.l2_banks:
        yield bank.tags


def _assert_no_sentinel_for_live_ways(tags: TagArray) -> None:
    for set_idx in range(tags.num_sets):
        for way in range(tags.assoc):
            line = tags.line(set_idx, way)
            if line.valid or line.reserved:
                assert line is not UNALLOCATED
    for line in tags.iter_valid_lines():
        assert line is not UNALLOCATED


class TestUnallocatedSentinel:
    def test_pristine_after_full_runs(self):
        for config in ("Dy-FUSE", "L1-SRAM"):
            sim = _run_machine(config)
            assert _pristine(UNALLOCATED), config
            assert not UNALLOCATED.valid and not UNALLOCATED.reserved
            # the runs did allocate lines, and every live way owns one
            assert any(True for tags in _tag_arrays(sim)
                       for _ in tags.iter_valid_lines())
            for tags in _tag_arrays(sim):
                _assert_no_sentinel_for_live_ways(tags)

    def test_fresh_array_shares_the_sentinel(self):
        tags = TagArray(4, 2)
        assert all(tags.line(s, w) is UNALLOCATED
                   for s in range(4) for w in range(2))
        tags.reserve(0x10)
        assert tags.line(0, 0) is not UNALLOCATED
        assert tags.line(0, 0).reserved

    def test_invalidate_hands_back_the_departed_line(self):
        tags = TagArray(1, 2)
        tags.install(0x10, dirty=True, fill_pc=0x40)
        line = tags.line(0, 0)
        departed = tags.invalidate(0x10)
        assert departed is line and departed.dirty
        assert tags.line(0, 0) is UNALLOCATED
        assert _pristine(UNALLOCATED)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["reserve", "fill", "install", "invalidate",
                               "touch"]),
              st.integers(min_value=0, max_value=63)),
    min_size=1, max_size=150,
))
def test_live_ways_never_point_at_the_sentinel(ops):
    tags = TagArray(4, 4)
    for op, block in ops:
        if op == "reserve":
            if (tags.find(block) is None and not tags.probe_reserved(block)
                    and tags.can_reserve(block)):
                tags.reserve(block)
        elif op == "fill":
            if tags.probe_reserved(block):
                tags.fill(block, is_write=True)
        elif op == "install":
            if (tags.find(block) is None and not tags.probe_reserved(block)
                    and tags.can_reserve(block)):
                tags.install(block)
        elif op == "invalidate":
            tags.invalidate(block)
        else:
            hit = tags.find(block)
            if hit is not None:
                tags.touch(*hit, is_write=True)
        _assert_no_sentinel_for_live_ways(tags)
    assert _pristine(UNALLOCATED)


def _reference_read(memory: MemorySubsystem, block: int, sm_id: int,
                    cycle: int) -> int:
    """``issue_read`` as a composition of the per-hop component calls."""
    stats, network, config = memory.stats, memory.network, memory.config
    stats.reads += 1
    arrive_l2, net_out = network.send_request(sm_id, cycle)
    bank = memory.l2_banks[block % config.l2_num_banks]
    service_start = bank.start_service(arrive_l2)
    service_done, hit, victim = bank.access(block, False, service_start)
    if hit:
        stats.l2_hits += 1
        data_at = service_done
    else:
        stats.l2_misses += 1
        channels, count = memory.channels, config.dram_channels
        data_at = channels[block % count].access(block // count, service_done)
        stats.dram_reads += 1
        if victim != -1:
            channels[victim % count].access(victim // count, data_at)
            stats.dram_writes += 1
        memory._lat_dram += data_at - service_done
    completion, net_back = network.send_response(bank.bank_id, data_at)
    memory._lat_network += net_out + net_back
    memory._lat_l2 += service_start - arrive_l2 + config.l2_service_cycles
    return completion


def _reference_writeback(memory: MemorySubsystem, block: int, sm_id: int,
                         cycle: int) -> None:
    """``issue_writeback`` as a composition of the component calls."""
    stats, network, config = memory.stats, memory.network, memory.config
    stats.writebacks += 1
    arrive_l2, _ = network.send_writeback(sm_id, cycle)
    stats.writeback_flits += network.response_flits
    bank = memory.l2_banks[block % config.l2_num_banks]
    service_start = bank.start_service(arrive_l2)
    _, hit, victim = bank.access(block, True, service_start)
    if hit:
        stats.l2_hits += 1
    else:
        stats.l2_misses += 1
    if victim != -1:
        count = config.dram_channels
        memory.channels[victim % count].access(victim // count, service_start)
        stats.dram_writes += 1


def _state(memory: MemorySubsystem) -> dict:
    network = memory.network
    return {
        "stats": dataclasses.asdict(memory.finalize_stats()),
        "network": (list(network.sm_inject), list(network.bank_inject),
                    network.request_flits_sent, network.response_flits_sent),
        "banks": [b.busy_until for b in memory.l2_banks],
        "channels": [(c.row_hits, c.row_misses) for c in memory.channels],
    }


def test_memory_hot_path_matches_the_composed_hops():
    config = fermi_like().with_overrides(num_sms=4)
    flat, composed = MemorySubsystem(config), MemorySubsystem(config)
    rng = random.Random(7)
    cycle = 0
    for _ in range(4000):
        cycle += rng.randrange(0, 6)
        # a small footprint forces L2 hits, misses and dirty victims
        block = rng.randrange(0, 40_000)
        sm_id = rng.randrange(config.num_sms)
        if rng.random() < 0.3:
            flat.issue_writeback(block, sm_id, cycle)
            _reference_writeback(composed, block, sm_id, cycle)
        else:
            assert flat.issue_read(block, sm_id, cycle) == _reference_read(
                composed, block, sm_id, cycle)
    flat_state, composed_state = _state(flat), _state(composed)
    assert flat_state == composed_state
    assert flat_state["stats"]["dram_writes"] > 0  # victims exercised


class TestCallCounter:
    def _profile(self, config: str):
        spec = RunSpec.build(config, "2DCONV", scale="smoke", num_sms=2)
        execute_spec(spec)  # warm the process-wide memos and the arena
        return profile_run(lambda: execute_spec(spec))

    def test_count_repeats_exactly(self):
        for config in ("L1-SRAM", "Dy-FUSE"):
            result, first = self._profile(config)
            _, second = self._profile(config)
            assert first.calls == second.calls > 0
            assert first.accesses == result.l1d.accesses > 0
            assert set(first.self_seconds) == {
                "gpu", "cache", "core", "memory", "other"}

    def test_run_is_restored(self):
        run = GPUSimulator.__dict__["run"]
        self._profile("L1-SRAM")
        assert GPUSimulator.__dict__["run"] is run

    def test_profile_command_prints_the_counter(self, capsys):
        code = main(["profile", "L1-SRAM", "2DCONV", "--sms", "2",
                     "--scale", "smoke", "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calls per access" in out
        assert "self time by package: gpu" in out


def _bench_throughput():
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "bench_throughput.py")
    spec = importlib.util.spec_from_file_location("bench_throughput", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_throughput_gate_is_exact_on_calls_per_access(tmp_path):
    bench = _bench_throughput()
    row = {"config": "L1-SRAM", "workload": "2DCONV",
           "cycles_per_sec": 1000.0, "py_calls_per_access": 20.0}
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"scale": "smoke", "num_sms": 2, "rows": [row]}))

    def report(**changes):
        return {"scale": "smoke", "num_sms": 2, "rows": [{**row, **changes}]}

    assert bench.check_against_baseline(report(), baseline, 0.3) == 0
    # a hair more calls per access fails; wall-clock keeps its tolerance
    assert bench.check_against_baseline(
        report(py_calls_per_access=20.001), baseline, 0.3) == 1
    assert bench.check_against_baseline(
        report(cycles_per_sec=800.0), baseline, 0.3) == 0
    assert bench.check_against_baseline(
        report(cycles_per_sec=600.0), baseline, 0.3) == 1


def test_throughput_check_refuses_other_repeat_counts(tmp_path, capsys):
    # best-of-1 pays the arena warm-up, so a --repeats 1 check against a
    # best-of-5 baseline fails an unchanged tree; it is refused before
    # anything is measured
    bench = _bench_throughput()
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"scale": "smoke", "num_sms": 2, "repeats": 5, "rows": []}))
    code = bench.main(
        ["--smoke", "--repeats", "1", "--check", str(baseline)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--repeats 5" in err and "--repeats 1" in err
