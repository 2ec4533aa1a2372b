"""Crash, corruption and concurrency contract of the result store.

The fabric's durability claim is that a result store survives the ugly
ways a writer dies: SIGKILLed mid-append, a torn final record, a
corrupted line in the middle of the file.  Recovery must lose at most
the torn record, and ``compact()`` must refuse -- not corrupt -- while
a live writer holds the file lock.  Concurrent appenders are pinned
too: they share the lock, and every record they write survives.
"""

import json

import pytest

from faultutil import (
    assert_crash_consistent,
    corrupt_line,
    fake_result,
    fill_store,
    kill_writer_after_bytes,
    parseable_tail_state,
    smoke_spec,
    spawn_store_writer,
    truncate_tail,
)
from repro.engine import ResultStore


def make_store(tmp_path, **kwargs) -> ResultStore:
    return ResultStore(tmp_path / "store.jsonl", **kwargs)


def _line_index_of(path, digest: str) -> int:
    for index, line in enumerate(path.read_text().splitlines()):
        if digest in line:
            return index
    raise AssertionError(f"{path} does not hold {digest[:12]}")


# ----------------------------------------------------------------------
def test_sigkill_mid_append_recovers(tmp_path):
    """A writer killed mid-stream loses at most its torn final record;
    the survivors load, and compact() heals the torn tail away."""
    observer = make_store(tmp_path)
    writer = spawn_store_writer(observer.path)
    try:
        kill_writer_after_bytes(writer, observer, min_bytes=200_000)
    finally:
        if writer.poll() is None:
            writer.kill()
            writer.wait(10)

    recovered = make_store(tmp_path)
    live = assert_crash_consistent(recovered)
    assert live > 0
    # the index serves reads for everything that survived
    some_key = next(iter(recovered.keys()))
    assert recovered.record(some_key)["key"] == some_key

    # compact() heals: same live count, and no torn tail remains
    assert recovered.compact() == live
    complete, tail = parseable_tail_state(recovered.path)
    assert tail == b""
    for line in complete:
        json.loads(line)
    assert len(make_store(tmp_path)) == live


def test_concurrent_appenders_keep_every_record(tmp_path):
    """Writers appending to one file at once share its lock: nothing
    is lost and no line is torn -- the property that makes one store
    file enough for every writer the fabric has."""
    path = tmp_path / "store.jsonl"
    count = 1500
    writers = [
        spawn_store_writer(path, start=index * count, count=count)
        for index in range(3)
    ]
    for writer in writers:
        _out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err.decode()

    reopened = ResultStore(path)
    assert assert_crash_consistent(reopened) == 3 * count
    assert set(reopened.keys()) == {"%064x" % i for i in range(3 * count)}
    assert parseable_tail_state(path)[1] == b""


def test_truncated_tail_loses_only_the_torn_record(tmp_path):
    store = make_store(tmp_path)
    keys = fill_store(store, 6)

    # the most recent put is the last line: tearing a few bytes off the
    # file tears exactly that record
    truncate_tail(store.path, nbytes=10)

    recovered = make_store(tmp_path)
    assert keys[-1] not in recovered
    assert len(recovered) == 5
    for seed, key in enumerate(keys[:-1]):
        result = recovered.get(key)
        assert result is not None and result.cycles == 100 + seed
    assert_crash_consistent(recovered)


def test_corrupt_line_skipped_and_compacted_away(tmp_path):
    store = make_store(tmp_path)
    keys = fill_store(store, 6)

    corrupt_line(store.path, _line_index_of(store.path, keys[0]))

    recovered = make_store(tmp_path)
    assert keys[0] not in recovered  # corrupt record invisible, not fatal
    assert len(recovered) == 5
    assert all(key in recovered for key in keys[1:])

    # compact() drops the garbage line physically
    assert recovered.compact() == 5
    for line in recovered.path.read_text().splitlines():
        json.loads(line)
    assert len(make_store(tmp_path)) == 5


# ----------------------------------------------------------------------
def test_compact_refuses_inside_own_batch(tmp_path):
    store = make_store(tmp_path)
    fill_store(store, 2)
    with store.batched():
        with pytest.raises(RuntimeError, match="batched"):
            store.compact()
    assert store.compact() == 2  # fine once the batch closed


def test_compact_refuses_while_writer_holds_lock(tmp_path):
    """A live writer's lock makes compaction refuse rather than orphan
    the writer's inode (which would silently eat its appends)."""
    store = make_store(tmp_path)
    fill_store(store, 6)
    # duplicate every record so a successful compact is observable as
    # the file shrinking to one line per key
    for seed in range(6):
        spec = smoke_spec(seed=seed)
        store.put(spec, fake_result(spec))

    writer = make_store(tmp_path)
    before = store.path.read_bytes()
    with writer.batched():
        spec = smoke_spec(seed=0)
        writer.put(spec, fake_result(spec))
        writer.flush()
        held = store.path.read_bytes()

        with pytest.raises(RuntimeError, match="another process"):
            make_store(tmp_path).compact()
        # the file was left exactly as the writer had it
        assert store.path.read_bytes() == held
    assert len(held) > len(before)

    # lock released: compaction succeeds and dedups the file
    assert make_store(tmp_path).compact() == 6
    reloaded = make_store(tmp_path)
    assert len(reloaded) == 6
    assert len(reloaded.path.read_text().splitlines()) == 6
