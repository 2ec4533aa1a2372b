"""Shared fault-injection helpers for the store and fabric test layers.

The distributed fabric's correctness claims are concurrency and crash
claims, so the tests need to *cause* the failures: kill writer
processes mid-append, tear the tail off a segment file, corrupt a
record in place, and run real ``repro worker`` subprocesses against a
live scheduler.  Everything process-shaped lives here so
``test_store_faults.py`` / ``test_distributed.py`` stay declarative.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import time

import repro
from repro.cache.stats import CacheStats
from repro.engine import ResultStore, RunSpec
from repro.gpu.stats import MemorySystemStats, SimulationResult

#: importable package root for subprocess PYTHONPATH
SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])

SMOKE = dict(gpu_profile="fermi", scale="smoke", num_sms=2)


def smoke_spec(config="L1-SRAM", workload="2DCONV", seed=0) -> RunSpec:
    return RunSpec.build(config, workload, seed=seed, **SMOKE)


def fake_result(spec: RunSpec) -> SimulationResult:
    """A cheap, serialisable result (no simulation)."""
    return SimulationResult(
        config_name=spec.l1d.name, workload_name=spec.workload,
        cycles=100 + spec.seed, instructions=50, l1d=CacheStats(),
        memory=MemorySystemStats(),
    )


def fill_store(store: ResultStore, count: int):
    """Put *count* distinct fake records; returns their key digests in
    insertion order."""
    keys = []
    for seed in range(count):
        spec = smoke_spec(seed=seed)
        store.put(spec, fake_result(spec))
        keys.append(spec.key().digest)
    return keys


def subprocess_env(**extra) -> dict:
    """Environment for child processes: the package importable, plus
    any overrides (``REPRO_*`` knobs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update({k: str(v) for k, v in extra.items()})
    return env


# ----------------------------------------------------------------------
# store writer subprocesses: SIGKILLed mid-append, or run side by side
_WRITER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.engine.store import ResultStore
from repro.engine.serialize import SCHEMA_VERSION

store = ResultStore(sys.argv[2])
filler = "x" * 2048  # fat records: a random kill likely lands mid-line
i, stop = int(sys.argv[3]), int(sys.argv[4])
with store.batched(flush_every=1):
    while stop < 0 or i < stop:
        key = "%064x" % i
        store.put_record(key, {
            "schema": SCHEMA_VERSION, "key": key,
            "spec": {"i": i, "filler": filler},
            "result": {"cycles": i},
        })
        i += 1
"""


def spawn_store_writer(path, start=0, count=None) -> subprocess.Popen:
    """Start a subprocess appending records to *path* as fast as it can
    (one flush per record), keyed ``start``, ``start + 1``, ...  With no
    *count* it never stops: the caller SIGKILLs it mid-stream."""
    stop = -1 if count is None else start + count
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, SRC_DIR, str(path),
         str(start), str(stop)],
        env=subprocess_env(REPRO_STORE="", REPRO_SPANS=""),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def kill_writer_after_bytes(
    writer: subprocess.Popen, store: ResultStore,
    min_bytes: int = 200_000, timeout_s: float = 30.0,
) -> None:
    """SIGKILL *writer* once the store holds at least *min_bytes* on
    disk (so the kill lands in the middle of a busy append stream)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if writer.poll() is not None:
            raise AssertionError(
                "writer died early: " + writer.stderr.read().decode()
            )
        size = store.path.stat().st_size if store.path.exists() else 0
        if size >= min_bytes:
            writer.kill()
            writer.wait(10)
            return
        time.sleep(0.01)
    writer.kill()
    raise AssertionError(f"writer never reached {min_bytes} bytes")


# ----------------------------------------------------------------------
# in-place corruption
def truncate_tail(path: pathlib.Path, nbytes: int) -> None:
    """Tear *nbytes* off the end of a file (a torn final record)."""
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - nbytes))


def corrupt_line(path: pathlib.Path, index: int) -> None:
    """Overwrite line *index* (0-based, negative ok) with garbage."""
    lines = path.read_bytes().split(b"\n")
    # drop the empty tail element a trailing newline produces
    body = lines[:-1] if lines and lines[-1] == b"" else lines
    body[index] = b'{"not": "valid json' + b"#" * 8
    path.write_bytes(b"\n".join(body) + b"\n")


def parseable_tail_state(path: pathlib.Path):
    """(complete_lines, torn_tail) decomposition of a store file.

    Complete lines are the newline-terminated ones; whatever follows
    the final newline is the torn tail a crashed writer may leave.
    """
    data = path.read_bytes()
    *complete, tail = data.split(b"\n")
    return complete, tail


def assert_crash_consistent(store: ResultStore) -> int:
    """The recovery contract after any crash: every newline-terminated
    line parses as JSON (only the torn tail may be garbage), and the
    loaded index agrees with what parses.  Returns the live count."""
    expected_keys = set()
    complete, _tail = parseable_tail_state(store.path)
    for line in complete:
        if not line.strip():
            continue
        record = json.loads(line)  # raises -> corruption beyond tail
        if record.get("schema") == store.schema_version:
            expected_keys.add(record["key"])
    assert set(store.keys()) == expected_keys
    return len(expected_keys)


# ----------------------------------------------------------------------
# worker fleet helpers (test_distributed.py)
def spawn_worker(
    url: str, name: str, *,
    ttl: float = None, max_runs: int = None, poll: float = 0.1,
    hold_s: float = None, once: bool = False, spans=None,
) -> subprocess.Popen:
    """Start a real ``repro worker`` subprocess against *url*.

    *spans* (a path) gives the worker its own ``REPRO_SPANS`` log --
    the fleet-observability tests merge these per-worker logs into one
    Chrome trace.
    """
    cmd = [sys.executable, "-m", "repro", "worker",
           "--url", url, "--name", name, "--poll", str(poll)]
    if ttl is not None:
        cmd += ["--ttl", str(ttl)]
    if max_runs is not None:
        cmd += ["--max-runs", str(max_runs)]
    if once:
        cmd.append("--once")
    extra = {"REPRO_STORE": "",
             "REPRO_SPANS": "" if spans is None else str(spans)}
    if hold_s is not None:
        extra["REPRO_WORKER_HOLD_S"] = hold_s
    return subprocess.Popen(
        cmd, env=subprocess_env(**extra),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def stop_workers(*workers: subprocess.Popen) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.kill()
    for worker in workers:
        worker.wait(10)


# ----------------------------------------------------------------------
# coordinator crash harness (test_journal.py): real `repro serve`
# subprocesses that can be SIGKILLed and restarted on one journal/store
def free_port() -> int:
    """A TCP port that was free a moment ago -- good enough for a
    coordinator that must come back on the *same* address after a
    SIGKILL (ephemeral port 0 changes on every restart)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_coordinator(
    port: int, *, store, journal=None, remote: bool = True, workers: int = 1,
) -> subprocess.Popen:
    """Start a real ``repro serve`` subprocess on a fixed *port*."""
    cmd = [sys.executable, "-m", "repro", "serve",
           "--host", "127.0.0.1", "--port", str(port),
           "--store", str(store), "--workers", str(workers)]
    if remote:
        cmd.append("--remote")
    if journal is not None:
        cmd += ["--journal", str(journal)]
    return subprocess.Popen(
        cmd, env=subprocess_env(REPRO_STORE="", REPRO_SPANS=""),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def wait_for_service(url: str, proc: subprocess.Popen = None,
                     timeout_s: float = 30.0) -> None:
    """Poll ``GET /healthz`` until the coordinator answers."""
    import urllib.request

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            raise AssertionError(
                "coordinator died during startup: "
                + proc.stderr.read().decode()
            )
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"no service answering at {url}")
