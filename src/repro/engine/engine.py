"""The parallel experiment engine.

:class:`ExperimentEngine` executes arbitrary sweep matrices (lists of
:class:`~repro.engine.spec.RunSpec`) with three layers of reuse:

1. duplicate specs inside one submission are collapsed by content hash;
2. specs already present in the :class:`~repro.engine.store.ResultStore`
   are served from disk (``source="store"``);
3. the remainder runs across a ``multiprocessing`` worker pool with
   chunked dispatch (``source="fresh"``) and is persisted back to the
   store as each run completes.

Failures are isolated per run: a worker that raises reports the
traceback in its :class:`RunOutcome` without killing the sweep.
Progress (completed/total, store hits vs fresh runs, ETA) streams
through an optional callback; :func:`stderr_progress` is a ready-made
terminal reporter.

``workers <= 1`` degrades to an in-process serial loop using the exact
same execution path (:func:`~repro.engine.spec.execute_spec`), so
parallel and serial results are bit-identical by construction.

**Trace arenas**: before any execution, the engine compiles one
:class:`~repro.workloads.arena.PackedTraceArena` per distinct trace
identity (:func:`~repro.engine.spec.trace_key`) among the pending specs
-- *pack before fork*, so a fork-style pool's workers inherit every
arena through copy-on-write page sharing and regenerate nothing.
Pending work is dispatched in trace-key order, so each pool chunk's
runs share one arena.  Under a non-fork start method (spawn,
forkserver) the parent packs nothing: workers share no memory, so each
builds the arenas it needs through
:func:`~repro.engine.spec.arena_for_spec`, deterministically from the
spec (per-warp RNG seeds plus its snapshotted ``trace_salt``).  Fresh
results are persisted through one batched store handle
(:meth:`~repro.engine.store.ResultStore.batched`) instead of an
open/append/close per run.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.spec import (
    RunSpec, arena_for_spec, execute_spec, load_execution_chain, trace_key,
)
from repro.engine.store import ResultStore
from repro.gpu.stats import SimulationResult
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.spans import span

# pool workers fork from this process: load the simulator before they do
load_execution_chain()

__all__ = [
    "ExperimentEngine", "OutcomeCallback", "ProgressCallback",
    "ProgressEvent", "RunOutcome", "WORKERS_ENV", "default_workers",
    "stderr_progress",
]

#: environment knob for the default worker-pool width
WORKERS_ENV = "REPRO_WORKERS"

# sweep-level accounting, exposed as repro_engine_* at GET /metrics.
# Pool workers are separate processes -- their executions are settled
# (and therefore counted) in the parent, so these stay accurate under
# every pool flavour.
_SWEEPS = REGISTRY.counter(
    "repro_engine_sweeps", "run_specs batches executed")
_RUNS = REGISTRY.counter(
    "repro_engine_runs", "Run outcomes settled, by source",
    labelnames=("source",))
_SWEEP_SECONDS = REGISTRY.histogram(
    "repro_engine_sweep_seconds", "Wall-time of run_specs batches")


@dataclass
class RunOutcome:
    """What happened to one submitted spec."""

    spec: RunSpec
    key: str
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    #: ``"store"`` (disk hit), ``"fresh"`` (simulated now) or ``"error"``
    source: str = "fresh"

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ProgressEvent:
    """One progress tick, emitted after every run settles."""

    completed: int
    total: int
    store_hits: int
    fresh: int
    errors: int
    elapsed_s: float
    eta_s: Optional[float]


ProgressCallback = Callable[[ProgressEvent], None]

#: per-run hook: called with each :class:`RunOutcome` the moment it
#: settles (store hit, fresh result or error) -- the streaming feed the
#: service layer mirrors job progress from
OutcomeCallback = Callable[["RunOutcome"], None]


def stderr_progress(event: ProgressEvent) -> None:
    """Render a one-line live progress ticker on stderr."""
    import sys

    eta = f" eta {event.eta_s:.0f}s" if event.eta_s is not None else ""
    end = "\n" if event.completed == event.total else ""
    sys.stderr.write(
        f"\r[sweep] {event.completed}/{event.total} "
        f"(store {event.store_hits}, fresh {event.fresh}, "
        f"errors {event.errors}){eta}   {end}"
    )
    sys.stderr.flush()


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else the CPU count."""
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pool_worker_init():
    """Reset inherited signal state in every pool worker.

    A fork-style worker inherits the parent's Python-level signal
    handlers.  When the parent is the HTTP service, those are asyncio's
    SIGTERM/SIGINT handlers -- which only write to a wakeup fd the
    child never services -- so ``Pool.terminate()``'s SIGTERM would be
    swallowed and the pool join would hang the sweep forever.  Workers
    take the default dispositions instead (and drop the inherited
    wakeup fd); the parent owns all signal policy.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def _run_one(task):
    """Pool worker body: execute one ``(index, spec)`` task, never raise."""
    index, spec = task
    try:
        return index, execute_spec(spec), None
    except Exception:
        return index, None, traceback.format_exc()


class ExperimentEngine:
    """Executes sweep matrices against the store + worker pool.

    Args:
        store: disk-backed L2 cache; ``None`` disables persistence.
        workers: pool width (default :func:`default_workers`); ``<= 1``
            runs serially in-process.
        progress: default progress callback for every sweep.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.store = store
        self.workers = default_workers() if workers is None else max(1, workers)
        self.progress = progress

    # ------------------------------------------------------------------
    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
    ) -> List[RunOutcome]:
        """Execute a batch of specs; returns outcomes aligned with input.

        Duplicate specs share one execution; store hits never touch the
        pool; fresh results are persisted as they arrive.  *on_outcome*
        streams each distinct outcome as it settles (store hits first,
        then fresh results/errors in completion order) -- duplicates of
        one digest fire it once.
        """
        _SWEEPS.inc()
        sweep_started = time.monotonic()
        with span("sweep", cat="job", specs=len(specs)) as attrs:
            outcomes = self._run_specs(specs, progress, on_outcome)
            attrs["outcomes"] = len(outcomes)
        _SWEEP_SECONDS.observe(time.monotonic() - sweep_started)
        return outcomes

    def _run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback],
        on_outcome: Optional[OutcomeCallback],
    ) -> List[RunOutcome]:
        progress = progress or self.progress
        specs = list(specs)
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        settled: Dict[str, RunOutcome] = {}
        started = time.monotonic()
        counters = {"store": 0, "fresh": 0, "errors": 0}

        def emit(completed: int, total: int) -> None:
            if progress is None:
                return
            elapsed = time.monotonic() - started
            eta = None
            if counters["fresh"] and completed < total:
                # store hits are ~free; only fresh runs predict the pace
                # of the (all-fresh) remainder
                per_run = elapsed / counters["fresh"]
                eta = per_run * (total - completed)
            progress(ProgressEvent(
                completed=completed, total=total,
                store_hits=counters["store"], fresh=counters["fresh"],
                errors=counters["errors"], elapsed_s=elapsed, eta_s=eta,
            ))

        # -- layer 1+2: dedupe and satisfy from the store ---------------
        pending: List[Tuple[str, RunSpec]] = []
        for index, spec in enumerate(specs):
            digest = spec.key().digest
            if digest in settled:
                outcomes[index] = settled[digest]
                continue
            stored = self.store.get(digest) if self.store is not None else None
            if stored is not None:
                outcome = RunOutcome(
                    spec=spec, key=digest, result=stored, source="store"
                )
                counters["store"] += 1
                _RUNS.labels("store").inc()
                if on_outcome is not None:
                    on_outcome(outcome)
            else:
                outcome = RunOutcome(spec=spec, key=digest)
                pending.append((digest, spec))
            settled[digest] = outcome
            outcomes[index] = outcome

        total = len(settled)
        completed = counters["store"]
        emit(completed, total)

        # -- layer 3: execute the remainder -----------------------------
        def settle(digest: str, result, error) -> None:
            nonlocal completed
            outcome = settled[digest]
            if error is not None:
                outcome.error = error
                outcome.source = "error"
                counters["errors"] += 1
                _RUNS.labels("error").inc()
            else:
                outcome.result = result
                outcome.source = "fresh"
                counters["fresh"] += 1
                _RUNS.labels("fresh").inc()
                if self.store is not None:
                    self.store.put(outcome.spec, result)
            completed += 1
            if on_outcome is not None:
                on_outcome(outcome)
            emit(completed, total)

        if pending:
            # dispatch in trace-identity order: runs sharing a trace sit
            # adjacent, so each pool chunk (and the serial loop's arena
            # LRU) replays one packed arena instead of thrashing between
            # workloads
            pending.sort(key=lambda item: trace_key(item[1]))
            use_pool = self.workers > 1 and len(pending) > 1
            workers = min(self.workers, len(pending))
            chunksize = max(1, len(pending) // (workers * 4))
            if use_pool:
                self._prepare_arenas([spec for _, spec in pending])
            batch = (
                self.store.batched(flush_every=chunksize)
                if self.store is not None else contextlib.nullcontext()
            )
            with batch:
                if not use_pool:
                    for digest, spec in pending:
                        _, result, error = _run_one((0, spec))
                        settle(digest, result, error)
                else:
                    tasks = list(enumerate(spec for _, spec in pending))
                    digests = [digest for digest, _ in pending]
                    with multiprocessing.Pool(
                        processes=workers, initializer=_pool_worker_init
                    ) as pool:
                        for index, result, error in pool.imap_unordered(
                            _run_one, tasks, chunksize=chunksize
                        ):
                            settle(digests[index], result, error)

        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    def _prepare_arenas(self, specs: Sequence[RunSpec]) -> None:
        """Compile the distinct trace arenas before a fork pool exists.

        Fork-style workers inherit the packed buffers through
        copy-on-write page sharing, so no worker regenerates a trace
        (for sweeps with more distinct trace identities than the arena
        cache retains -- ``ARENA_CACHE_LIMIT`` -- the overflow is left
        for workers to generate on demand).  Under any other start
        method workers share no memory and build their own arenas, so
        nothing is packed here.  Pack failures are swallowed -- the
        affected run will re-raise inside its own error-isolated worker.
        """
        if multiprocessing.get_start_method() != "fork":
            return
        from repro.workloads.arena import ARENA_CACHE_LIMIT

        distinct: Dict[str, RunSpec] = {}
        for spec in specs:
            distinct.setdefault(trace_key(spec), spec)
        # pack only what the LRU cache will actually retain at fork
        # time (dispatch is sorted by trace key, so these are the
        # first-dispatched identities); packing beyond the cap would
        # evict earlier arenas and waste the parent's work -- the
        # overflow regenerates in workers, exactly as pre-arena
        for spec in list(distinct.values())[:ARENA_CACHE_LIMIT]:
            try:
                arena_for_spec(spec)
            except Exception:
                pass  # the run itself will report the failure

    # ------------------------------------------------------------------
    def run_matrix(
        self,
        configs: Iterable,
        workloads: Iterable[str],
        gpu_profile: str = "fermi",
        scale: str = "bench",
        seed: int = 0,
        num_sms: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[Dict[str, Dict[str, SimulationResult]], List[RunOutcome]]:
        """Run a configs x workloads grid.

        *configs* entries may be names or :class:`L1DConfig` instances.

        Returns:
            ``({workload: {config_name: result}}, outcomes)`` -- failed
            runs are absent from the nested dict but present (with their
            traceback) in the outcome list.
        """
        configs = list(configs)
        workloads = list(workloads)
        specs = [
            RunSpec.build(
                config, workload, gpu_profile=gpu_profile, scale=scale,
                seed=seed, num_sms=num_sms,
            )
            for workload in workloads
            for config in configs
        ]
        outcomes = self.run_specs(specs, progress=progress)
        table: Dict[str, Dict[str, SimulationResult]] = {}
        for outcome in outcomes:
            if outcome.result is None:
                continue
            table.setdefault(outcome.spec.workload, {})[
                outcome.spec.l1d.name
            ] = outcome.result
        return table, outcomes
