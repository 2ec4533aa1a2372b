"""Per-layer timers and counters, installed from outside the program.

:func:`install` replaces the public entry point of each layer in
``src/repro/`` with a wrapper that records a span: call count, total
time and *self* time (total minus the time spent in nested wrapped
calls on the same thread).  :func:`uninstall` puts the originals back,
so one benchmark process can alternate untraced and traced
repetitions.  Nothing inside the program changes.

Spans (name -> wrapped entry point):

===================  ==============================================
workloads.pack       ``repro.engine.spec.arena_for_spec``
gpu.run              ``GPUSimulator.run``
cache.access         ``L1DCacheModel.access``
cache.fill           every ``fill`` defined by an L1D model class
memory.read          ``MemorySubsystem.issue_read``
memory.writeback     ``MemorySubsystem.issue_writeback``
energy.compute       ``compute_energy``
engine.execute       ``execute_spec``
engine.run_specs     ``ExperimentEngine.run_specs``
engine.store_put     ``ResultStore.put`` / ``ResultStore.put_record``
engine.store_get     ``ResultStore.get`` / ``ResultStore.record``
engine.store_load    the store's first index load (``JsonlSegment``)
service.submit       ``ServiceClient.submit``
service.lease        ``ServiceClient.lease``
service.settle       ``ServiceClient.settle``
===================  ==============================================

Processes: the tracer in the benchmark process is read in memory.  A
process started through ``launch.py`` with ``PERFBENCH_TRACE_DIR`` set
installs the same wrappers and writes its totals to
``<dir>/<pid>.json`` when it exits; a child forked from a traced
process (an engine pool worker) starts from zero and rewrites its file
after every top-level span, because pool workers are terminated
without running exit handlers.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import pathlib
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional

#: environment variable naming the directory traced child processes
#: write their totals to
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: span name -> layer; self times are summed per layer
LAYER_OF = {
    "workloads.pack": "workloads",
    "gpu.run": "gpu",
    "cache.access": "cache",
    "cache.fill": "cache",
    "memory.read": "memory",
    "memory.writeback": "memory",
    "energy.compute": "energy",
    "engine.execute": "engine",
    "engine.run_specs": "engine",
    "engine.store_put": "engine",
    "engine.store_get": "engine",
    "engine.store_load": "engine",
    "service.submit": "service",
    "service.lease": "service",
    "service.settle": "service",
}
LAYERS = ("workloads", "gpu", "cache", "memory", "energy", "engine",
          "service")


class _ThreadState:
    """Span totals of one thread (merged at read time)."""

    __slots__ = ("stack", "spans", "counts", "per_config", "busy")

    def __init__(self) -> None:
        #: one child-time accumulator per open span
        self.stack: List[float] = []
        #: name -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: L1D config -> {"access_calls", "access_s", ...}
        self.per_config: Dict[str, Dict[str, float]] = {}
        #: fleet-worker busy window: [first busy lease start, last settle end]
        self.busy: List[Optional[float]] = [None, None]

    def add(self, name: str, total: float, self_time: float) -> None:
        record = self.spans.get(name)
        if record is None:
            self.spans[name] = [1, total, self_time]
        else:
            record[0] += 1
            record[1] += total
            record[2] += self_time


class Tracer:
    """Span totals for one process, kept per thread."""

    def __init__(self) -> None:
        self.dump_dir: Optional[pathlib.Path] = None
        #: rewrite the dump file after every top-level span (fork children)
        self.dump_each = False
        self.reset()

    def reset(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged totals of every thread, JSON-safe."""
        with self._lock:
            threads = list(self._threads)
        merged = merge({
            "spans": state.spans, "counts": state.counts,
            "per_config": state.per_config, "worker_idle_s": 0.0,
        } for state in threads)
        # a fleet worker's idle time: its busy window (first non-empty
        # lease to last settle) minus the time it spent executing runs
        busy = [state.busy for state in threads
                if state.busy[0] is not None and state.busy[1] is not None]
        if busy:
            window = (max(last for _, last in busy)
                      - min(first for first, _ in busy))
            executed = merged["spans"].get("engine.execute", [0, 0.0])[1]
            merged["worker_idle_s"] = window - executed
        return merged

    def dump(self) -> None:
        """Write :meth:`snapshot` to ``<dump_dir>/<pid>.json`` atomically."""
        if self.dump_dir is None:
            return
        target = self.dump_dir / f"{os.getpid()}.json"
        partial = target.with_suffix(".part")
        partial.write_text(json.dumps(self.snapshot()))
        os.replace(partial, target)


TRACER = Tracer()


def merge(snapshots) -> dict:
    """Sum tracer snapshots (from several processes) into one."""
    out = {"spans": {}, "counts": {}, "per_config": {}, "worker_idle_s": 0.0}
    for snap in snapshots:
        for name, record in list(snap["spans"].items()):
            merged = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for index in range(3):
                merged[index] += record[index]
        for name, value in list(snap["counts"].items()):
            out["counts"][name] = out["counts"].get(name, 0) + value
        for config, values in list(snap["per_config"].items()):
            target = out["per_config"].setdefault(config, {})
            for name, value in values.items():
                target[name] = target.get(name, 0) + value
        out["worker_idle_s"] += snap["worker_idle_s"]
    return out


def read_dumps(directory: pathlib.Path) -> List[dict]:
    """Every process dump in *directory*."""
    return [
        json.loads(path.read_text())
        for path in sorted(directory.glob("*.json"))
    ]


# ----------------------------------------------------------------------
# wrappers
def _span(name: str, fn, tracer: Tracer = TRACER):
    """Wrap *fn* so each call records a *name* span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = tracer.state()
        stack = state.stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            state.add(name, elapsed, elapsed - child)
            if not stack and tracer.dump_each:
                tracer.dump()

    return wrapper


def _access_span(fn, reservation_fail, tracer: Tracer = TRACER):
    """``cache.access``: the hot path, so a leaf span without nesting
    bookkeeping beyond the parent's child-time credit; it also counts
    RESERVATION_FAIL outcomes."""

    @functools.wraps(fn)
    def access(self, request, cycle):
        state = tracer.state()
        start = perf_counter()
        result = fn(self, request, cycle)
        elapsed = perf_counter() - start
        stack = state.stack
        if stack:
            stack[-1] += elapsed
        state.add("cache.access", elapsed, elapsed)
        if result.outcome is reservation_fail:
            counts = state.counts
            counts["cache.reservation_fail"] = (
                counts.get("cache.reservation_fail", 0) + 1)
        return result

    return access


def _leaf_span(name: str, fn, tracer: Tracer = TRACER):
    """A span for a hot leaf call (no wrapped call nests inside it)."""

    @functools.wraps(fn)
    def wrapper(*args):
        state = tracer.state()
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        stack = state.stack
        if stack:
            stack[-1] += elapsed
        state.add(name, elapsed, elapsed)
        return result

    return wrapper


def _run_span(fn, tracer: Tracer = TRACER):
    """``gpu.run`` plus the per-config split of the cache counters."""
    traced = _span("gpu.run", fn, tracer)

    @functools.wraps(fn)
    def run(self, workload_name="", config_name="", *args, **kwargs):
        state = tracer.state()
        before = _cache_totals(state)
        result = traced(self, workload_name, config_name, *args, **kwargs)
        after = _cache_totals(state)
        bucket = state.per_config.setdefault(config_name or "?", {})
        for key, value in after.items():
            bucket[key] = bucket.get(key, 0) + value - before[key]
        return result

    return run


def _cache_totals(state: _ThreadState) -> Dict[str, float]:
    access = state.spans.get("cache.access", (0, 0.0, 0.0))
    fill = state.spans.get("cache.fill", (0, 0.0, 0.0))
    return {
        "access_calls": access[0], "access_s": access[1],
        "fill_calls": fill[0], "fill_s": fill[1],
        "reservation_fail": state.counts.get("cache.reservation_fail", 0),
    }


def _pack_span(fn, tracer: Tracer = TRACER):
    """``workloads.pack``: counts real packs (arena cache misses)."""
    from repro.workloads.arena import arena_cache_stats

    traced = _span("workloads.pack", fn, tracer)

    @functools.wraps(fn)
    def arena_for_spec(*args, **kwargs):
        before = arena_cache_stats()["packs"]
        try:
            return traced(*args, **kwargs)
        finally:
            packed = arena_cache_stats()["packs"] - before
            if packed:
                counts = tracer.state().counts
                counts["workloads.packs"] = (
                    counts.get("workloads.packs", 0) + packed)

    return arena_for_spec


def _load_span(fn, tracer: Tracer = TRACER):
    """``engine.store_load``: only the call that actually loads."""
    traced = _span("engine.store_load", fn, tracer)

    @functools.wraps(fn)
    def _ensure_loaded(self):
        if self._loaded:
            return fn(self)
        return traced(self)

    return _ensure_loaded


def _get_span(fn, tracer: Tracer = TRACER):
    """``engine.store_get``: also counts lookups that found a record."""
    traced = _span("engine.store_get", fn, tracer)

    @functools.wraps(fn)
    def get(self, key):
        found = traced(self, key)
        if found is not None:
            counts = tracer.state().counts
            counts["engine.store_hits"] = (
                counts.get("engine.store_hits", 0) + 1)
        return found

    return get


def _lease_span(fn, tracer: Tracer = TRACER):
    """``service.lease``: counts empty grants and opens the busy window."""
    traced = _span("service.lease", fn, tracer)

    @functools.wraps(fn)
    def lease(self, *args, **kwargs):
        started = time.monotonic()
        grant = traced(self, *args, **kwargs)
        state = tracer.state()
        if grant.get("runs"):
            if state.busy[0] is None:
                state.busy[0] = started
        else:
            state.counts["service.lease_empty"] = (
                state.counts.get("service.lease_empty", 0) + 1)
        return grant

    return lease


def _settle_span(fn, tracer: Tracer = TRACER):
    """``service.settle``: extends the busy window."""
    traced = _span("service.settle", fn, tracer)

    @functools.wraps(fn)
    def settle(self, *args, **kwargs):
        try:
            return traced(self, *args, **kwargs)
        finally:
            tracer.state().busy[1] = time.monotonic()

    return settle


# ----------------------------------------------------------------------
_ORIGINALS: List[tuple] = []


def _patch(owner, attr: str, wrapper) -> None:
    _ORIGINALS.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapper)


def _l1d_classes():
    import repro.core.factory  # noqa: F401 -- registers every model
    from repro.cache.interface import L1DCacheModel

    seen, pending = [], [L1DCacheModel]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def install() -> None:
    """Wrap every layer's entry points (idempotent)."""
    if _ORIGINALS:
        return
    import repro.energy.model as energy_model
    import repro.engine.engine as engine_module
    import repro.engine.spec as spec_module
    import repro.engine.store as store_module
    import repro.engine.store_backends as backends_module
    import repro.service.client as client_module
    import repro.service.worker as worker_module
    from repro.cache.interface import AccessOutcome, L1DCacheModel
    from repro.gpu.simulator import GPUSimulator
    from repro.memory.subsystem import MemorySubsystem

    pack = _pack_span(spec_module.arena_for_spec)
    _patch(spec_module, "arena_for_spec", pack)
    _patch(engine_module, "arena_for_spec", pack)
    execute = _span("engine.execute", spec_module.execute_spec)
    _patch(spec_module, "execute_spec", execute)
    _patch(engine_module, "execute_spec", execute)
    _patch(worker_module, "execute_spec", execute)
    energy = _span("energy.compute", energy_model.compute_energy)
    _patch(energy_model, "compute_energy", energy)
    _patch(spec_module, "compute_energy", energy)

    _patch(GPUSimulator, "run", _run_span(GPUSimulator.run))
    _patch(L1DCacheModel, "access", _access_span(
        L1DCacheModel.access, AccessOutcome.RESERVATION_FAIL))
    for cls in _l1d_classes():
        if "fill" in cls.__dict__ and not getattr(
                cls.__dict__["fill"], "__isabstractmethod__", False):
            _patch(cls, "fill", _leaf_span("cache.fill", cls.__dict__["fill"]))
    _patch(MemorySubsystem, "issue_read",
           _leaf_span("memory.read", MemorySubsystem.issue_read))
    _patch(MemorySubsystem, "issue_writeback",
           _leaf_span("memory.writeback", MemorySubsystem.issue_writeback))

    engine_cls = engine_module.ExperimentEngine
    _patch(engine_cls, "run_specs",
           _span("engine.run_specs", engine_cls.run_specs))
    store_cls = store_module.ResultStore
    for attr in ("put", "put_record"):
        _patch(store_cls, attr,
               _span("engine.store_put", store_cls.__dict__[attr]))
    for attr in ("get", "record"):
        _patch(store_cls, attr, _get_span(store_cls.__dict__[attr]))
    segment = backends_module.JsonlSegment
    _patch(segment, "_ensure_loaded", _load_span(segment._ensure_loaded))

    client_cls = client_module.ServiceClient
    _patch(client_cls, "submit", _span("service.submit", client_cls.submit))
    _patch(client_cls, "lease", _lease_span(client_cls.lease))
    _patch(client_cls, "settle", _settle_span(client_cls.settle))


def uninstall() -> None:
    """Restore every wrapped entry point."""
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)


def _after_fork_in_child() -> None:
    # a forked child (an engine pool worker) must not report the
    # parent's totals, and exits without running exit handlers
    TRACER.reset()
    TRACER.dump_each = TRACER.dump_dir is not None


def install_for_child_process() -> bool:
    """Entry for processes started by ``launch.py``: install and dump
    at exit when ``PERFBENCH_TRACE_DIR`` is set.  Returns whether
    tracing is on."""
    directory = os.environ.get(TRACE_DIR_ENV, "").strip()
    if not directory:
        return False
    TRACER.dump_dir = pathlib.Path(directory)
    install()
    atexit.register(TRACER.dump)
    return True


os.register_at_fork(after_in_child=_after_fork_in_child)
