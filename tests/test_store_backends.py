"""Backend equivalence: both on-disk layouts expose one store semantics.

The sharded backend must be observationally identical to the
single-file one -- same visible state after any operation sequence
(puts, overwrites, batches, reopen, compact), same schema invalidation,
same corrupt-line tolerance -- with ``repro store migrate`` converting
losslessly between them.  Also covers backend selection (on-disk
detection beats ``REPRO_STORE_BACKEND`` beats the default) and the
backend-aware ``ResultStore.info()`` / ``repro store info`` surface.
"""

import json

import pytest

from faultutil import corrupt_line, fake_result, fill_store, smoke_spec
from repro.cache.stats import CacheStats
from repro.cli import main
from repro.engine import ResultStore
from repro.engine.serialize import SCHEMA_VERSION
from repro.engine.store import migrate_store
from repro.engine.store_backends import ShardedBackend
from repro.gpu.stats import MemorySystemStats, SimulationResult

BACKENDS = ("jsonl", "sharded")


def store_path(tmp_path, backend: str, name: str = "store"):
    return tmp_path / (name if backend == "sharded" else f"{name}.jsonl")


def make_store(tmp_path, backend: str, name: str = "store", **kwargs):
    return ResultStore(
        store_path(tmp_path, backend, name), backend=backend, **kwargs
    )


def visible_state(store: ResultStore) -> dict:
    """Everything a caller can observe through the store API."""
    keys = sorted(store.keys())
    return {
        "len": len(store),
        "keys": keys,
        "cycles": {
            key: store.record(key)["result"]["cycles"] for key in keys
        },
        "stale": store.stale_records,
        "contains_missing": "0" * 64 in store,
    }


def override_result(spec, cycles: int) -> SimulationResult:
    return SimulationResult(
        config_name=spec.l1d.name, workload_name=spec.workload,
        cycles=cycles, instructions=50, l1d=CacheStats(),
        memory=MemorySystemStats(),
    )


def drive_op_sequence(store: ResultStore) -> None:
    """The shared operation script both backends must agree on."""
    fill_store(store, 8)
    # overwrite: newest record wins
    spec = smoke_spec(seed=3)
    store.put(spec, override_result(spec, cycles=9999))
    # batched appends, including a nested (reentrant) block
    with store.batched(flush_every=4):
        for seed in range(8, 16):
            inner = smoke_spec(seed=seed)
            with store.batched():
                store.put(inner, fake_result(inner))


# ----------------------------------------------------------------------
def test_same_op_sequence_same_visible_state(tmp_path):
    states = {}
    for backend in BACKENDS:
        store = make_store(tmp_path, backend)
        drive_op_sequence(store)
        in_process = visible_state(store)
        reopened = visible_state(make_store(tmp_path, backend))
        assert reopened == in_process, backend
        states[backend] = reopened
    assert states["jsonl"] == states["sharded"]
    # the overwrite won on both
    assert states["jsonl"]["cycles"][smoke_spec(seed=3).key().digest] == 9999

    # compaction changes nothing visible, on either backend
    for backend in BACKENDS:
        store = make_store(tmp_path, backend)
        assert store.compact() == 16
        assert visible_state(store) == states[backend]
        assert visible_state(make_store(tmp_path, backend)) == states[backend]


def test_schema_bump_invalidates_both_backends_identically(tmp_path):
    states = {}
    for backend in BACKENDS:
        drive_op_sequence(make_store(tmp_path, backend))
        stale = make_store(
            tmp_path, backend, schema_version=SCHEMA_VERSION + 1
        )
        states[backend] = visible_state(stale)
        assert len(stale) == 0
        assert stale.stale_records == 17  # 16 keys + 1 overwrite line
        # compact drops the stale records physically
        assert stale.compact() == 0
        assert stale.stale_records == 0
        assert sum(p.stat().st_size for p in stale.files()) == 0
    assert states["jsonl"] == states["sharded"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_key_lookups_take_run_key_or_digest_only(tmp_path, backend):
    store = make_store(tmp_path, backend)
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


def test_corrupt_line_tolerance_is_equivalent(tmp_path):
    states = {}
    for backend in BACKENDS:
        store = make_store(tmp_path, backend)
        keys = fill_store(store, 6)
        # corrupt the line holding keys[2], wherever it lives
        for path in store.files():
            lines = path.read_text().splitlines()
            for index, line in enumerate(lines):
                if keys[2] in line:
                    corrupt_line(path, index)
        states[backend] = visible_state(make_store(tmp_path, backend))
        assert keys[2] not in states[backend]["keys"]
        assert states[backend]["len"] == 5
    assert states["jsonl"] == states["sharded"]


# ----------------------------------------------------------------------
def test_migrate_round_trips_losslessly(tmp_path, capsys):
    source = make_store(tmp_path, "jsonl", name="source")
    drive_op_sequence(source)
    original = visible_state(source)
    raw_records = {key: source.record(key) for key in source.keys()}

    # jsonl -> sharded via the CLI
    sharded_path = tmp_path / "sharded-dest"
    assert main([
        "store", "migrate", str(sharded_path),
        "--store", str(source.path), "--backend", "sharded", "--shards", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "migrated 16 records" in out and "(jsonl) -> " in out

    sharded = ResultStore(sharded_path)
    assert sharded.backend_name == "sharded"
    assert sharded.info()["shards"] == 4
    assert visible_state(sharded) == original
    # records are copied raw: byte-for-byte payload equality
    assert {k: sharded.record(k) for k in sharded.keys()} == raw_records

    # sharded -> jsonl round-trip restores the original visible state
    back_path = tmp_path / "roundtrip.jsonl"
    assert main([
        "store", "migrate", str(back_path),
        "--store", str(sharded_path), "--backend", "jsonl",
    ]) == 0
    back = ResultStore(back_path)
    assert back.backend_name == "jsonl"
    assert visible_state(back) == original
    assert {k: back.record(k) for k in back.keys()} == raw_records


def test_migrate_refuses_nonempty_destination(tmp_path, capsys):
    source = make_store(tmp_path, "jsonl", name="source")
    fill_store(source, 2)
    dest = make_store(tmp_path, "sharded", name="occupied")
    fill_store(dest, 1)
    assert main([
        "store", "migrate", str(dest.path), "--store", str(source.path),
        "--backend", "sharded",
    ]) == 2
    assert "already holds" in capsys.readouterr().err
    with pytest.raises(ValueError, match="already holds"):
        migrate_store(source, ResultStore(dest.path))


# ----------------------------------------------------------------------
def test_backend_selection_precedence(tmp_path, monkeypatch):
    # nothing on disk + no env -> jsonl
    fresh = ResultStore(tmp_path / "fresh.jsonl")
    assert fresh.backend_name == "jsonl"

    # nothing on disk + env -> sharded
    monkeypatch.setenv("REPRO_STORE_BACKEND", "sharded")
    monkeypatch.setenv("REPRO_STORE_SHARDS", "8")
    via_env = ResultStore(tmp_path / "via-env")
    fill_store(via_env, 1)
    assert via_env.backend_name == "sharded"
    assert via_env.info()["shards"] == 8

    # existing layout beats the env knob, both directions
    monkeypatch.setenv("REPRO_STORE_BACKEND", "jsonl")
    assert ResultStore(tmp_path / "via-env").backend_name == "sharded"
    existing_file = tmp_path / "old.jsonl"
    fill_store(ResultStore(existing_file), 1)
    monkeypatch.setenv("REPRO_STORE_BACKEND", "sharded")
    assert ResultStore(existing_file).backend_name == "jsonl"

    # unknown names are refused loudly
    monkeypatch.setenv("REPRO_STORE_BACKEND", "papyrus")
    with pytest.raises(ValueError, match="papyrus"):
        ResultStore(tmp_path / "nope.jsonl")
    monkeypatch.delenv("REPRO_STORE_BACKEND")
    with pytest.raises(ValueError, match="papyrus"):
        ResultStore(tmp_path / "nope.jsonl", backend="papyrus")


def test_sharded_routing_is_stable_and_recorded(tmp_path):
    store = make_store(tmp_path, "sharded", shards=4)
    keys = fill_store(store, 8)
    backend = store._backend
    assert isinstance(backend, ShardedBackend)
    for key in keys:
        shard = int(key[:8], 16) % 4
        assert backend.shard_of(key) == shard
        assert key in backend.shard_path(shard).read_text()
    meta = json.loads((store.path / "shards.json").read_text())
    assert meta["shards"] == 4
    # a conflicting shard request on an existing store is ignored: the
    # recorded count is authoritative (re-routing would orphan records)
    again = ResultStore(store.path, shards=32)
    assert again.info()["shards"] == 4
    assert visible_state(again) == visible_state(store)


def test_batch_handle_probe_works_on_both_backends(tmp_path):
    for backend in BACKENDS:
        store = make_store(tmp_path, backend)
        assert store._batch_handle is None
        with store.batched():
            assert store._batch_handle is not None
        assert store._batch_handle is None


# ----------------------------------------------------------------------
# satellite: backend-aware info(), API and CLI
def test_info_is_backend_aware(tmp_path):
    jsonl = make_store(tmp_path, "jsonl")
    fill_store(jsonl, 3)
    info = jsonl.info()
    assert info["backend"] == "jsonl"
    assert info["records"] == 3
    assert info["stale_records"] == 0
    assert info["schema_version"] == SCHEMA_VERSION
    assert info["size_bytes"] == jsonl.path.stat().st_size > 0
    assert "shards" not in info

    sharded = make_store(tmp_path, "sharded", shards=4)
    fill_store(sharded, 3)
    info = sharded.info()
    assert info["backend"] == "sharded"
    assert info["shards"] == 4
    assert info["records"] == 3
    assert len(info["shard_info"]) == 4
    assert sum(row["records"] for row in info["shard_info"]) == 3
    assert info["size_bytes"] == sum(
        row["size_bytes"] for row in info["shard_info"]
    ) > 0


def test_cli_store_info_and_compact_are_backend_aware(tmp_path, capsys):
    sharded = make_store(tmp_path, "sharded", shards=4)
    fill_store(sharded, 4)
    spec = smoke_spec(seed=0)  # superseded record for compact to drop
    sharded.put(spec, fake_result(spec))

    assert main(["store", "info", "--store", str(sharded.path)]) == 0
    out = capsys.readouterr().out
    assert "sharded" in out and "shards" in out
    assert "shard 0" in out  # per-shard breakdown lines

    assert main(["store", "compact", "--store", str(sharded.path)]) == 0
    out = capsys.readouterr().out
    assert "(sharded)" in out
    assert "4 live records" in out and "1 dropped" in out

    jsonl = make_store(tmp_path, "jsonl")
    fill_store(jsonl, 2)
    assert main(["store", "info", "--store", str(jsonl.path)]) == 0
    out = capsys.readouterr().out
    assert "jsonl" in out and "shard 0" not in out
