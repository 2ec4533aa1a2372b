"""Tests for the packed trace arena: lossless pack/unpack, compile-once
cache accounting, the warp cursor, batched store appends, and
bit-identity of arena-replayed simulations (serial, fork and spawn
pools)."""

import json
import multiprocessing
import subprocess
import sys

import pytest

from repro.core.factory import l1d_config, make_l1d
from repro.engine import (
    ExperimentEngine,
    ResultStore,
    RunSpec,
    execute_spec,
    result_to_dict,
)
from repro.engine.spec import trace_key
from repro.gpu.config import fermi_like
from repro.gpu.simulator import GPUSimulator
from repro.workloads.arena import (
    PackedTraceArena,
    arena_cache_stats,
    cached_arena,
    reset_arena_cache,
)
from repro.workloads.benchmarks import benchmark
from repro.workloads.trace import (
    TraceScale,
    compute_block,
    load_instruction,
    store_instruction,
)
from tests.faultutil import subprocess_env

SMOKE = dict(gpu_profile="fermi", scale="smoke", num_sms=2)


def smoke_spec(config="L1-SRAM", workload="2DCONV", seed=0):
    return RunSpec.build(config, workload, seed=seed, **SMOKE)


@pytest.fixture(autouse=True)
def fresh_arena_cache():
    """Each test observes its own pack/hit counters."""
    reset_arena_cache()
    yield
    reset_arena_cache()


class TestPackUnpackRoundTrip:
    def _assert_round_trip(self, model):
        arena = PackedTraceArena.from_model(model)
        total_instructions = total_txns = 0
        for sm_id in range(model.num_sms):
            for warp_id in range(model.warps_per_sm):
                original = tuple(model.warp_stream(sm_id, warp_id))
                unpacked = arena.instructions(sm_id, warp_id)
                assert unpacked == original  # lossless, field for field
                total_instructions += sum(
                    op.count if op.kind == 0 else 1 for op in original
                )
                total_txns += sum(len(op.transactions) for op in original)
        assert arena.total_instructions == total_instructions
        assert arena.total_transactions == total_txns
        assert arena.nbytes > 0

    def test_table2_workload(self):
        self._assert_round_trip(
            benchmark("ATAX", num_sms=2, warps_per_sm=4,
                      scale=TraceScale.smoke())
        )

    def test_dnn_workload(self):
        self._assert_round_trip(
            benchmark("attention", num_sms=2, warps_per_sm=4,
                      scale=TraceScale.smoke())
        )

    def test_hand_authored_ops(self):
        ops = [
            compute_block(7),
            load_instruction(0x40, [0, 4, 8]),
            store_instruction(0x48, [0, 128, 4096]),
            load_instruction(0x50, []),  # memory op with no transactions
        ]
        arena = PackedTraceArena.from_streams(
            "hand", 1, 1, lambda sm, w: ops
        )
        assert arena.instructions(0, 0) == tuple(ops)

    def test_warp_span_bounds_checked(self):
        arena = PackedTraceArena.from_streams("x", 1, 2, lambda s, w: [])
        with pytest.raises(IndexError):
            arena.warp_span(1, 0)
        with pytest.raises(IndexError):
            arena.warp_span(0, 2)


class TestWarpCursor:
    def test_empty_stream_done_only_when_consulted(self):
        # the lazy-iterator warp flipped done on the first failed fetch,
        # not at construction; the cursor must preserve that (it is
        # scheduler-visible and pinned by golden parity): the empty
        # warp costs its SM one issue attempt before the next warp runs
        sim = GPUSimulator(
            fermi_like().with_overrides(num_sms=1),
            l1d_factory=lambda: make_l1d(l1d_config("L1-SRAM")),
            warp_streams=lambda sm_id, warp_id: (
                [] if warp_id == 0 else [compute_block(1)]),
            warps_per_sm=2,
        )
        sm = sim.sms[0]
        empty, full = sm.warps
        assert not empty.done
        assert not sm.try_issue(0)
        assert empty.done and not full.done
        assert full.instructions_issued == 0
        assert sm.try_issue(1)
        assert full.instructions_issued == 1


class TestArenaCache:
    def test_config_sweep_packs_exactly_once(self):
        # 8 configs x 1 workload: the sweep's defining reuse shape
        configs = ["L1-SRAM", "By-NVM", "Hybrid", "Base-FUSE", "FA-FUSE",
                   "Dy-FUSE", "FA-SRAM", "L1-NVM"]
        for config in configs:
            execute_spec(smoke_spec(config=config))
        stats = arena_cache_stats()
        assert stats["packs"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == len(configs) - 1

    def test_distinct_traces_get_distinct_arenas(self):
        execute_spec(smoke_spec())
        execute_spec(smoke_spec(workload="ATAX"))
        execute_spec(smoke_spec(seed=3))
        assert arena_cache_stats()["packs"] == 3

    def test_trace_key_ignores_l1d_and_gpu_timing(self):
        assert trace_key(smoke_spec("L1-SRAM")) == trace_key(
            smoke_spec("Dy-FUSE")
        )
        assert trace_key(smoke_spec()) != trace_key(smoke_spec(seed=1))
        assert trace_key(smoke_spec()) != trace_key(
            smoke_spec(workload="ATAX")
        )

    def test_cached_arena_lru_accounting(self):
        built = []

        def builder(name):
            def build():
                built.append(name)
                return PackedTraceArena.from_streams(
                    name, 1, 1, lambda s, w: [compute_block(1)]
                )
            return build

        cached_arena("k1", builder("k1"))
        cached_arena("k1", builder("k1"))
        cached_arena("k2", builder("k2"))
        assert built == ["k1", "k2"]
        stats = arena_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_arena_replay_is_bit_identical_to_fresh_generation(self):
        warm = execute_spec(smoke_spec(config="Dy-FUSE"))
        reset_arena_cache()
        cold = execute_spec(smoke_spec(config="Dy-FUSE"))
        assert result_to_dict(warm) == result_to_dict(cold)


class TestEngineArenaIntegration:
    def _matrix_specs(self):
        configs = ["L1-SRAM", "Dy-FUSE", "By-NVM"]
        workloads = ["2DCONV", "ATAX"]
        return [
            smoke_spec(config=config, workload=workload)
            for workload in workloads for config in configs
        ]

    def test_parallel_matches_serial_with_grouped_chunks(self):
        specs = self._matrix_specs()
        serial = ExperimentEngine(workers=1).run_specs(specs)
        parallel = ExperimentEngine(workers=3).run_specs(specs)
        assert [o.key for o in serial] == [o.key for o in parallel]
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert result_to_dict(s.result) == result_to_dict(p.result)

    def test_parent_packs_before_fork(self):
        specs = self._matrix_specs()
        ExperimentEngine(workers=2).run_specs(specs)
        # the parent compiled one arena per distinct trace (2 workloads),
        # regardless of how the pool scheduled the 6 runs
        assert arena_cache_stats()["packs"] == 2

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_matches_serial(self):
        # spawn workers share no memory with the parent: the parent packs
        # nothing and each worker regenerates its traces from the spec,
        # under the spec's snapshotted trace salt, not the re-imported
        # module default
        result = subprocess.run(
            [sys.executable, "-c", _SPAWN_POOL_SCRIPT],
            env=subprocess_env(REPRO_STORE="", REPRO_SPANS=""),
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["errors"] == []
        assert report["parent_packs"] == 0
        assert report["runs"] == 4
        assert report["pooled"] == report["serial"]


_SPAWN_POOL_SCRIPT = """
import json, multiprocessing
multiprocessing.set_start_method("spawn")
from repro.core.factory import l1d_config, make_l1d
from repro.engine import (
    ExperimentEngine, RunSpec, execute_spec, result_to_dict)
from repro.workloads.arena import arena_cache_stats
from repro.workloads.kernels import KernelModel
# a non-default global salt, snapshotted into every spec: re-imported
# spawn workers see the module default (0), the serial reference sees 3
KernelModel.TRACE_SALT = 3
specs = [
    RunSpec.build(config, workload, gpu_profile="fermi", scale="smoke",
                  num_sms=2)
    for workload in ("2DCONV", "ATAX") for config in ("L1-SRAM", "Dy-FUSE")
]
outcomes = ExperimentEngine(workers=2).run_specs(specs)
parent_packs = arena_cache_stats()["packs"]
print(json.dumps({
    "errors": [o.error for o in outcomes if not o.ok],
    "parent_packs": parent_packs,
    "runs": len(outcomes),
    "pooled": [result_to_dict(o.result) for o in outcomes if o.ok],
    "serial": [result_to_dict(execute_spec(spec)) for spec in specs],
}))
"""


class TestBatchedStore:
    def test_batched_puts_equal_plain_puts(self, tmp_path):
        spec_a, spec_b = smoke_spec(), smoke_spec(config="Dy-FUSE")
        result_a, result_b = execute_spec(spec_a), execute_spec(spec_b)

        plain = ResultStore(tmp_path / "plain.jsonl")
        plain.put(spec_a, result_a)
        plain.put(spec_b, result_b)

        batched = ResultStore(tmp_path / "batched.jsonl")
        with batched.batched(flush_every=1):
            batched.put(spec_a, result_a)
            batched.put(spec_b, result_b)

        assert (
            (tmp_path / "plain.jsonl").read_text()
            == (tmp_path / "batched.jsonl").read_text()
        )
        reread = ResultStore(tmp_path / "batched.jsonl")
        assert result_to_dict(reread.get(spec_a.key())) == result_to_dict(
            result_a
        )

    def test_flush_per_chunk_makes_rows_visible(self, tmp_path):
        spec = smoke_spec()
        result = execute_spec(spec)
        store = ResultStore(tmp_path / "s.jsonl")
        with store.batched(flush_every=2):
            store.put(spec, result)
            # one put, flush_every=2: may still sit in the buffer; an
            # explicit flush must make it durable mid-batch
            store.flush()
            lines = (tmp_path / "s.jsonl").read_text().splitlines()
            assert len(lines) == 1
        assert spec.key() in ResultStore(tmp_path / "s.jsonl")

    def test_nested_batches_reuse_outer_handle(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        spec = smoke_spec()
        result = execute_spec(spec)
        with store.batched():
            with store.batched():
                store.put(spec, result)
            assert store._batch_handle is not None  # outer still owns it
        assert store._batch_handle is None

    def test_compact_refused_inside_batch(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with store.batched():
            with pytest.raises(RuntimeError, match="batched"):
                store.compact()

    def test_engine_sweep_persists_through_batch(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        specs = [smoke_spec(), smoke_spec(config="Dy-FUSE")]
        outcomes = ExperimentEngine(store=store, workers=1).run_specs(specs)
        assert all(o.ok and o.source == "fresh" for o in outcomes)
        reread = ResultStore(tmp_path / "sweep.jsonl")
        assert len(reread) == 2

    def test_corrupt_tail_still_tolerated(self, tmp_path):
        # a crash mid-batch leaves at worst a torn final line
        store = ResultStore(tmp_path / "s.jsonl")
        spec = smoke_spec()
        store.put(spec, execute_spec(spec))
        with (tmp_path / "s.jsonl").open("a") as handle:
            handle.write('{"schema": 1, "key": "torn')
        reread = ResultStore(tmp_path / "s.jsonl")
        assert len(reread) == 1
