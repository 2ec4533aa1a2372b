"""Tests for the parallel experiment engine and the persistent store."""

import json
import re
import subprocess
from fractions import Fraction

import pytest

from faultutil import fake_result, fill_store
from repro.cli import main
from repro.core.factory import l1d_config, ratio_config
from repro.engine import (
    SCHEMA_VERSION,
    ExperimentEngine,
    ResultStore,
    RunKey,
    RunSpec,
    execute_spec,
    result_from_dict,
    result_to_dict,
    spec_to_dict,
)
from repro.harness.runner import Runner
from repro.workloads.dnn import DNN_SUITE

SMOKE = dict(gpu_profile="fermi", scale="smoke", num_sms=2)


def smoke_spec(config="L1-SRAM", workload="2DCONV", seed=0):
    return RunSpec.build(config, workload, seed=seed, **SMOKE)


class TestRunKey:
    def test_stable_across_reconstruction(self):
        # two logically identical configs built by separate calls must
        # collapse to the same content hash
        a = RunSpec.build(ratio_config(Fraction(1, 4)), "ATAX", **SMOKE)
        b = RunSpec.build(ratio_config(Fraction(1, 4)), "ATAX", **SMOKE)
        assert a.key() == b.key()
        assert RunKey.for_spec(a).digest == RunKey.for_spec(b).digest

    def test_float_and_fraction_ratios_share_one_key(self):
        # a ratio is named from its normalised Fraction, so the float
        # spelling of a Figure 18 point is the same machine and run
        as_float = ratio_config(0.5)
        as_fraction = ratio_config(Fraction(1, 2))
        assert as_float == as_fraction
        assert as_float.name == "Dy-FUSE-1/2"
        assert (RunSpec.build(as_float, "ATAX", **SMOKE).key()
                == RunSpec.build(as_fraction, "ATAX", **SMOKE).key())

    def test_description_is_cosmetic(self):
        cfg = l1d_config("Dy-FUSE")
        relabelled = cfg.with_overrides(description="something else")
        assert (RunSpec.build(cfg, "ATAX", **SMOKE).key()
                == RunSpec.build(relabelled, "ATAX", **SMOKE).key())

    def test_semantic_fields_change_the_key(self):
        base = smoke_spec()
        assert base.key() != smoke_spec(workload="ATAX").key()
        assert base.key() != smoke_spec(seed=1).key()
        assert base.key() != smoke_spec(config="Dy-FUSE").key()
        bigger = RunSpec.build("L1-SRAM", "2DCONV", gpu_profile="fermi",
                               scale="smoke", num_sms=4)
        assert base.key() != bigger.key()

    @pytest.mark.parametrize("config, digest", [
        (
            "L1-SRAM",
            "d9c207a7d5c8268e2edded48de760af075c1a5bb45abc4834cbf97ffb3150f47",
        ),
        (
            ratio_config(Fraction(1, 2)),
            "39a0509e08096ee37c69549a56b9931c3c7898d6ac9ba2549cc25e619029f158",
        ),
    ], ids=["L1-SRAM", "Dy-FUSE-1/2"])
    def test_store_keys_pinned(self, config, digest):
        # literal digests of stored runs: a change to spec_to_dict's
        # layout would orphan every result already in a store
        spec = RunSpec.build(config, "ATAX", trace_salt=0, **SMOKE)
        assert spec.key().digest == digest

    @pytest.mark.parametrize("bad", [
        dict(num_sms=0), dict(num_sms=-2), dict(scale="huge"),
        dict(gpu_profile="pascal"),
    ])
    def test_build_rejects_out_of_range_fields(self, bad):
        fields = dict(SMOKE, **bad)
        with pytest.raises(ValueError):
            RunSpec.build("L1-SRAM", "ATAX", **fields)

    def test_num_sms_resolved_from_profile(self):
        spec = RunSpec.build("L1-SRAM", "ATAX", gpu_profile="fermi",
                             scale="smoke")
        assert spec.num_sms == 15  # Table I's SM count

    def test_trace_salt_is_part_of_run_identity(self, monkeypatch):
        # the salt changes every generated trace, so results computed
        # under different salts must never collide in the store
        from repro.workloads.kernels import KernelModel

        key_default = smoke_spec().key()
        monkeypatch.setattr(KernelModel, "TRACE_SALT", 1)
        salted = smoke_spec()
        assert salted.trace_salt == 1  # snapshotted at build time
        assert salted.key() != key_default

    def test_execute_honours_spec_salt_not_global(self):
        # a spawn-style worker re-imports the modules and sees the
        # default global salt; the spec's snapshot must win regardless
        from repro.workloads.kernels import KernelModel

        base = execute_spec(smoke_spec())
        spec = RunSpec.build("L1-SRAM", "2DCONV", trace_salt=1, **SMOKE)
        salted = execute_spec(spec)
        assert KernelModel.TRACE_SALT == 0  # restored after the run
        assert result_to_dict(salted) != result_to_dict(base)
        # same salt-1 spec again: reproducible
        assert result_to_dict(execute_spec(spec)) == result_to_dict(salted)


class TestSerialization:
    def test_result_round_trip(self):
        result = execute_spec(smoke_spec(config="Dy-FUSE"))
        restored = result_from_dict(result_to_dict(result))
        assert result_to_dict(restored) == result_to_dict(result)
        assert restored.ipc == result.ipc
        assert restored.l1d_miss_rate == result.l1d_miss_rate
        assert restored.l1d.as_dict() == result.l1d.as_dict()

    def test_energy_fields_survive(self):
        result = execute_spec(smoke_spec(config="Dy-FUSE"))
        restored = result_from_dict(result_to_dict(result))
        assert restored.energy is not None
        assert restored.energy.l1d_nj == result.energy.l1d_nj
        assert restored.energy.total_nj == result.energy.total_nj
        assert restored.energy.stt_dynamic_nj == result.energy.stt_dynamic_nj


class TestResultStore:
    def test_round_trip_through_disk(self, tmp_path):
        spec = smoke_spec(config="Dy-FUSE")
        result = execute_spec(spec)
        store = ResultStore(tmp_path / "store.jsonl")
        key = store.put(spec, result)
        # a brand-new instance re-reads the file from scratch
        reloaded = ResultStore(tmp_path / "store.jsonl")
        fetched = reloaded.get(key)
        assert fetched is not None
        assert result_to_dict(fetched) == result_to_dict(result)
        assert key in reloaded and len(reloaded) == 1

    def test_schema_mismatch_invalidates(self, tmp_path):
        spec = smoke_spec()
        store = ResultStore(tmp_path / "store.jsonl")
        key = store.put(spec, execute_spec(spec))
        stale_reader = ResultStore(
            tmp_path / "store.jsonl", schema_version=SCHEMA_VERSION + 1
        )
        assert stale_reader.get(key) is None
        assert len(stale_reader) == 0
        assert stale_reader.stale_records == 1

    def test_corrupt_line_skipped(self, tmp_path):
        spec = smoke_spec()
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        key = store.put(spec, execute_spec(spec))
        with path.open("a") as handle:
            handle.write('{"truncated": ')
        reloaded = ResultStore(path)
        assert reloaded.get(key) is not None

    def test_compact_drops_stale(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = smoke_spec()
        old = ResultStore(path, schema_version=SCHEMA_VERSION - 1)
        old.put(spec, execute_spec(spec))
        current = ResultStore(path)
        current.put(spec, execute_spec(spec))
        assert current.compact() == 1
        assert ResultStore(path).stale_records == 0

    def test_compact_refuses_while_a_writer_holds_the_file(self, tmp_path):
        """A live writer (e.g. a serving process mid-sweep) must make
        compaction refuse -- a rewrite would orphan the writer's inode
        and silently lose every record it appends afterwards."""
        path = tmp_path / "store.jsonl"
        spec = smoke_spec()
        result = execute_spec(spec)
        writer = ResultStore(path)
        operator = ResultStore(path)
        with writer.batched():
            writer.put(spec, result)
            with pytest.raises(RuntimeError, match="another process"):
                operator.compact()
        # writer gone: the lock is released and compaction proceeds
        assert operator.compact() == 1

    def test_compact_preserves_concurrent_appends(self, tmp_path):
        """compact() re-reads the file under its exclusive lock, so a
        record appended by another process after this store loaded its
        index is kept, not silently dropped."""
        path = tmp_path / "store.jsonl"
        first = smoke_spec("L1-SRAM")
        store = ResultStore(path)
        store.put(first, execute_spec(first))
        assert len(store) == 1  # index loaded now
        other = ResultStore(path)
        second = smoke_spec("Dy-FUSE")
        other.put(second, execute_spec(second))
        assert store.compact() == 2
        assert len(ResultStore(path)) == 2

    def test_key_lookups_take_run_key_or_digest_only(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        spec = smoke_spec(seed=1)
        key = store.put(spec, fake_result(spec))
        assert store.get(key).cycles == store.get(key.digest).cycles
        assert key in store and key.digest in store
        assert store.record(key) == store.record(key.digest)
        # a spec is not a key: refuse it instead of silently missing
        for call in (store.get, store.record, store.__contains__,
                     lambda k: store.put_record(k, store.record(key))):
            with pytest.raises(TypeError, match="RunSpec"):
                call(spec)

    def test_batch_handle_probe(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store._batch_handle is None
        with store.batched():
            assert store._batch_handle is not None
        assert store._batch_handle is None

    def test_info_fields(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        fill_store(store, 3)
        assert store.info() == {
            "path": str(store.path),
            "records": 3,
            "stale_records": 0,
            "schema_version": SCHEMA_VERSION,
            "size_bytes": store.path.stat().st_size,
        }
        assert store.info()["size_bytes"] > 0

    def test_cli_store_info_and_compact(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store.jsonl")
        fill_store(store, 4)
        spec = smoke_spec(seed=0)  # superseded record for compact to drop
        store.put(spec, fake_result(spec))

        assert main(["store", "info", "--store", str(store.path)]) == 0
        out = capsys.readouterr().out
        for field in store.info():
            assert field in out
        assert str(store.path) in out

        assert main(["store", "compact", "--store", str(store.path)]) == 0
        out = capsys.readouterr().out
        assert f"compacted {store.path}: 4 live records" in out
        assert "1 dropped" in out

    def test_legacy_sharded_store_fails_clearly(self, tmp_path):
        """A directory -- a store of the removed sharded layout -- is
        refused, and the import the message names recovers every
        record, newest-wins order included."""
        legacy = tmp_path / "legacy-store"
        legacy.mkdir()
        (legacy / "shards.json").write_text(
            '{"backend": "sharded", "shards": 2, "version": 1}')
        keys = []

        def append(seed: int, cycles: int) -> None:
            spec = smoke_spec(seed=seed)
            record = {
                "schema": SCHEMA_VERSION, "key": spec.key().digest,
                "spec": spec_to_dict(spec),
                "result": result_to_dict(fake_result(spec)),
            }
            record["result"]["cycles"] = cycles
            shard = legacy / f"shard-{seed % 2:02d}.jsonl"
            with shard.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            keys.append(record["key"])

        for seed in range(6):
            append(seed, cycles=100 + seed)
        append(0, cycles=999)  # a later record for seed 0, same shard

        with pytest.raises(ValueError, match="sharded store layout was "
                                             "removed") as refusal:
            ResultStore(legacy)
        command = re.search(r"`(cat [^`]+)`", str(refusal.value)).group(1)
        subprocess.run(command, shell=True, cwd=tmp_path, check=True)

        imported = ResultStore(tmp_path / "results.jsonl")
        assert set(imported.keys()) == set(keys)
        assert [imported.get(key).cycles for key in keys[:6]] == [
            999, 101, 102, 103, 104, 105]

    def test_cli_refuses_legacy_sharded_store(self, tmp_path, capsys):
        legacy = tmp_path / "legacy-store"
        legacy.mkdir()
        sweep = ["sweep", "--configs", "L1-SRAM", "--workloads", "ATAX",
                 "--scale", "smoke", "--sms", "2", "--quiet"]
        for argv in (["store", "info"], ["store", "compact"], sweep,
                     ["serve", "--port", "0"]):
            assert main(argv + ["--store", str(legacy)]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: "), argv
            assert f"cat {legacy}/shard-*.jsonl > results.jsonl" in err


class TestEngine:
    def test_parallel_identical_to_serial(self):
        specs = [
            smoke_spec(config, workload)
            for config in ("L1-SRAM", "Dy-FUSE")
            for workload in ("ATAX", "BICG")
        ]
        serial = [result_to_dict(execute_spec(spec)) for spec in specs]
        engine = ExperimentEngine(workers=2)
        outcomes = engine.run_specs(specs)
        assert all(o.ok and o.source == "fresh" for o in outcomes)
        parallel = [result_to_dict(o.result) for o in outcomes]
        assert parallel == serial

    def test_duplicate_specs_share_one_execution(self):
        spec = smoke_spec()
        outcomes = ExperimentEngine(workers=1).run_specs([spec, spec])
        assert len(outcomes) == 2
        assert outcomes[0].result is outcomes[1].result

    def test_crash_isolated_without_killing_sweep(self):
        good = smoke_spec()
        bad = smoke_spec(workload="NO-SUCH-WORKLOAD")
        for workers in (1, 2):
            outcomes = ExperimentEngine(workers=workers).run_specs(
                [good, bad]
            )
            by_workload = {o.spec.workload: o for o in outcomes}
            assert by_workload["2DCONV"].ok
            assert by_workload["2DCONV"].result.ipc > 0
            failed = by_workload["NO-SUCH-WORKLOAD"]
            assert not failed.ok and failed.source == "error"
            assert "unknown benchmark" in failed.error

    def test_second_sweep_served_from_store(self, tmp_path):
        specs = [smoke_spec("L1-SRAM"), smoke_spec("Dy-FUSE")]
        store = ResultStore(tmp_path / "store.jsonl")
        first = ExperimentEngine(store=store, workers=2).run_specs(specs)
        assert [o.source for o in first] == ["fresh", "fresh"]
        # fresh engine + fresh store handle: everything comes from disk
        again = ExperimentEngine(
            store=ResultStore(tmp_path / "store.jsonl"), workers=2
        ).run_specs(specs)
        assert [o.source for o in again] == ["store", "store"]
        assert ([result_to_dict(o.result) for o in again]
                == [result_to_dict(o.result) for o in first])

    def test_progress_stream(self, tmp_path):
        events = []
        engine = ExperimentEngine(workers=1, progress=events.append)
        engine.run_specs([smoke_spec("L1-SRAM"), smoke_spec("Dy-FUSE")])
        assert events[-1].completed == events[-1].total == 2
        assert events[-1].fresh == 2
        completed = [e.completed for e in events]
        assert completed == sorted(completed)

    def test_on_outcome_streams_every_settlement(self, tmp_path):
        specs = [smoke_spec("L1-SRAM"), smoke_spec("Dy-FUSE")]
        store = ResultStore(tmp_path / "store.jsonl")
        streamed = []
        outcomes = ExperimentEngine(store=store, workers=1).run_specs(
            specs, on_outcome=streamed.append
        )
        # the same settled objects stream out, one per distinct key
        assert {id(o) for o in streamed} == {id(o) for o in outcomes}
        assert [o.source for o in streamed] == ["fresh", "fresh"]
        # warm pass: store hits stream too (before any pool dispatch)
        streamed = []
        ExperimentEngine(
            store=ResultStore(tmp_path / "store.jsonl"), workers=1
        ).run_specs(specs, on_outcome=streamed.append)
        assert [o.source for o in streamed] == ["store", "store"]
        # duplicates of one digest fire the callback once
        streamed = []
        ExperimentEngine(workers=1).run_specs(
            [specs[0], specs[0]], on_outcome=streamed.append
        )
        assert len(streamed) == 1

    def test_run_matrix_shape(self):
        table, outcomes = ExperimentEngine(workers=1).run_matrix(
            ["L1-SRAM", "Dy-FUSE"], ["ATAX"], scale="smoke", num_sms=2
        )
        assert set(table) == {"ATAX"}
        assert set(table["ATAX"]) == {"L1-SRAM", "Dy-FUSE"}
        assert len(outcomes) == 2

    def test_dnn_suite_sweep_with_store_round_trip(self, tmp_path):
        """The acceptance bar: a DNN-suite sweep runs end-to-end through
        the parallel engine, and a repeat completes from the store."""
        store_path = tmp_path / "store.jsonl"
        engine = ExperimentEngine(
            store=ResultStore(store_path), workers=2
        )
        table, first = engine.run_matrix(
            ["L1-SRAM", "Dy-FUSE"], DNN_SUITE, scale="smoke", num_sms=2,
        )
        assert all(o.ok for o in first)
        assert {o.source for o in first} == {"fresh"}
        assert set(table) == set(DNN_SUITE)
        engine2 = ExperimentEngine(
            store=ResultStore(store_path), workers=2
        )
        _, second = engine2.run_matrix(
            ["L1-SRAM", "Dy-FUSE"], DNN_SUITE, scale="smoke", num_sms=2,
        )
        assert {o.source for o in second} == {"store"}


class TestCrossProcessReproducibility:
    def test_results_invariant_under_hash_seed(self, tmp_path):
        # the store replays results across interpreter invocations, so a
        # run's numbers must not depend on PYTHONHASHSEED (trace RNGs are
        # seeded from a process-stable hash of the benchmark name)
        import json
        import os
        import subprocess
        import sys

        script = (
            "import json, sys\n"
            "from repro.engine import RunSpec, execute_spec, result_to_dict\n"
            "spec = RunSpec.build('Dy-FUSE', 'ATAX', gpu_profile='fermi',"
            " scale='smoke', num_sms=2)\n"
            "print(json.dumps(result_to_dict(execute_spec(spec)),"
            " sort_keys=True))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]


class TestRunnerIntegration:
    def test_cache_hits_across_reconstructed_configs(self):
        # the satellite fix: logically identical custom configs built by
        # separate ratio_config() calls hit the same cache entry
        runner = Runner(scale="smoke", num_sms=2)
        first = runner.run("x", "ATAX", l1d=ratio_config(Fraction(1, 4)))
        second = runner.run("x", "ATAX", l1d=ratio_config(Fraction(1, 4)))
        assert first is second
        assert runner.cache_size() == 1

    def test_store_is_l2_behind_the_memo_dict(self, tmp_path):
        path = tmp_path / "store.jsonl"
        warm = Runner(scale="smoke", num_sms=2, store=ResultStore(path))
        baseline = warm.run("Dy-FUSE", "ATAX")
        # a brand-new runner (empty L1) must satisfy the run from disk
        # without simulating: executing would blow up via monkeypatch
        cold = Runner(scale="smoke", num_sms=2, store=ResultStore(path))
        import repro.harness.runner as runner_mod

        original = runner_mod.execute_spec
        runner_mod.execute_spec = lambda spec: pytest.fail(
            "expected a store hit, got a fresh simulation"
        )
        try:
            fetched = cold.run("Dy-FUSE", "ATAX")
        finally:
            runner_mod.execute_spec = original
        assert result_to_dict(fetched) == result_to_dict(baseline)

    def test_prefetch_warms_cache_for_serial_reads(self):
        runner = Runner(scale="smoke", num_sms=2)
        outcomes = runner.prefetch(
            [("L1-SRAM", "ATAX"), ("Dy-FUSE", "ATAX")], workers=2
        )
        assert len(outcomes) == 2
        assert runner.cache_size() == 2
        # serial reads below must not execute anything new
        assert runner.run("L1-SRAM", "ATAX").ipc > 0
        assert runner.cache_size() == 2

    def test_prefetch_skips_memoised_runs(self):
        runner = Runner(scale="smoke", num_sms=2)
        runner.run("L1-SRAM", "ATAX")
        outcomes = runner.prefetch(
            [("L1-SRAM", "ATAX"), ("Dy-FUSE", "ATAX")], workers=1
        )
        assert len(outcomes) == 1
        assert outcomes[0].spec.l1d.name == "Dy-FUSE"
