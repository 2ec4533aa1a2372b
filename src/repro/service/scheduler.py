"""Bounded async job queue over one lease queue.

The scheduler owns the three layers of single-flight coalescing that
let a busy service do dramatically less work than it is asked for:

1. **job level** -- a submission whose content-addressed id matches a
   queued/running job attaches to it instead of enqueueing a duplicate;
2. **run-key level** -- when a job starts, any of its keys currently
   being simulated by *another* in-flight job are awaited instead of
   re-dispatched;
3. **completed-key level** -- keys already settled are served from the
   in-memory record mirror, then the
   :class:`~repro.engine.store.ResultStore`.  A warm store answers a
   whole sweep with **zero** simulations.

**One dispatch path.**  The remaining keys always queue on the
:class:`~repro.service.leases.LeaseManager`, and every outcome comes
back through :meth:`JobScheduler.settle` -- the store's only writer.
Given an engine (``repro serve``), one in-process *lessee* task leases
every pending key at once and runs the batch through
:meth:`~repro.engine.engine.ExperimentEngine.run_specs` in a thread-pool
executor, settling outcomes as they stream back via
``call_soon_threadsafe``.  Without one (``repro serve --remote``),
``repro worker`` processes lease over HTTP; an idle worker's request is
a long poll held in :meth:`JobScheduler.wait_for_work` until keys
become pending or draining begins.  A reaper re-queues the keys of
expired leases, so no job hangs on a dead worker.

Jobs beyond ``max_active`` wait in a bounded FIFO queue; submissions
past ``max_queue`` raise :class:`QueueFull` (HTTP 429).  All scheduler
state is mutated on the event loop thread only, so job state needs no
locks.  With a :class:`~repro.service.journal.JobJournal` attached,
every lifecycle transition is journaled and :meth:`JobScheduler.recover`
replays the log at startup, so a restarted coordinator serves finished
jobs from history and re-queues unfinished ones.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import math
import sys
import threading
import time
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.engine import ExperimentEngine, RunOutcome
from repro.engine.serialize import result_to_dict
from repro.engine.spec import spec_to_dict
from repro.engine.store import ResultStore
from repro.service.jobs import Job, SweepRequest
from repro.service.journal import (
    EV_JOB_ACCEPTED,
    EV_JOB_DONE,
    EV_LEASE_EXPIRED,
    EV_LEASE_GRANTED,
    EV_RUN_SETTLED,
    JobJournal,
    load_journal,
    restore_job,
)
from repro.service.leases import (
    DEFAULT_LEASE_RUNS,
    DEFAULT_LEASE_TTL_S,
    MAX_ATTEMPTS,
    Lease,
    LeaseManager,
)
from repro.service.registry import WorkerRegistry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import record_span
from repro.telemetry.tracectx import (
    format_traceparent,
    span_id_for_key,
    trace_scope,
)

__all__ = [
    "DEFAULT_MAX_ACTIVE", "DEFAULT_MAX_QUEUE", "Draining", "JobScheduler",
    "QueueFull",
]

#: default bound on jobs waiting to start (HTTP 429 past this)
DEFAULT_MAX_QUEUE = 32
#: default bound on jobs executing concurrently
DEFAULT_MAX_ACTIVE = 1
#: bound on in-memory completed-run records (LRU evicted)
RESULT_CACHE = 4096
#: finished jobs kept for GET /v1/jobs/{id}
JOB_HISTORY = 256
#: reaper tick for expiring dead leases, seconds
LEASE_REAP_INTERVAL = 0.25
#: the in-process lessee's name in the lease table and fleet ledger
LESSEE = "local"


def _usable_timing(timing) -> Optional[dict]:
    """A settle's ``timing`` when its numbers convert to finite values,
    else ``None``: bad timing is ignored, never fatal."""
    if not isinstance(timing, dict):
        return None
    try:
        sim_s = float(timing.get("sim_s", 0.0))
        int(timing.get("cycles", 0))
    except (TypeError, ValueError, OverflowError):
        return None
    return timing if math.isfinite(sim_s) else None


class QueueFull(RuntimeError):
    """The waiting queue is at capacity (HTTP 429)."""


class Draining(RuntimeError):
    """The service is shutting down and takes no new work (HTTP 503)."""


class JobScheduler:
    """Single-flight job execution over one lease queue.

    Args:
        engine: a store-less engine the in-process lessee runs every
            leased batch through; ``None`` leaves the queue to workers
            leasing over HTTP.
        store: the durable cache layer, written only by :meth:`settle`.
        max_queue: waiting-job bound (:class:`QueueFull` past it).
        max_active: concurrently executing job bound.
        journal: write-ahead job journal for crash recovery (``None``
            keeps behaviour byte-identical to an unjournaled service).
    """

    def __init__(
        self,
        engine: Optional[ExperimentEngine] = None,
        store: Optional[ResultStore] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_active: int = DEFAULT_MAX_ACTIVE,
        journal: Optional[JobJournal] = None,
    ) -> None:
        self.engine = engine
        self.store = store
        self.max_queue = max(0, max_queue)
        self.max_active = max(1, max_active)
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._waiting: Deque[Job] = collections.deque()
        self._active: Dict[str, asyncio.Task] = {}
        #: run keys being simulated right now -> future resolving to
        #: ``(source, error)`` for jobs that attach (single-flight)
        self._inflight: Dict[str, asyncio.Future] = {}
        #: completed-run record mirror: key -> {"key", "spec", "result"}
        self._records: "collections.OrderedDict[str, dict]" = (
            collections.OrderedDict()
        )
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        # concurrent settles persist from executor threads, and the
        # store's append handle is single-threaded by design
        self._store_lock = threading.Lock()
        self.leases = LeaseManager()
        self.workers = WorkerRegistry()
        self._reaper: Optional[asyncio.Task] = None
        self._lessee: Optional[asyncio.Task] = None
        #: job id -> the exception text of a batch that failed as a
        #: whole under the lessee (the job ends ``failed`` with it)
        self._failures: Dict[str, str] = {}
        #: long-poll wake signal: fired (and replaced by a fresh event)
        #: whenever keys become pending or draining begins
        self._work_signal = asyncio.Event()
        # per-scheduler registry: concurrent services in one process
        # (tests run many) must never see each other's counters.  The
        # HTTP layer renders this together with the process-wide
        # REGISTRY (arena/store/engine families).
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"repro_service_{name}", help_text)
            for name, help_text in (
                ("jobs_submitted", "Sweep jobs accepted (new, not coalesced)"),
                ("jobs_executed", "Jobs whose execution started"),
                ("jobs_coalesced",
                 "Submissions attached to an identical in-flight job"),
                ("keys_coalesced",
                 "Run keys awaited from another job's in-flight execution"),
                ("runs_store", "Runs served from the result store/cache"),
                ("runs_fresh", "Runs simulated by this service"),
                ("runs_error", "Runs that settled with an error"),
            )
        }
        self._register_gauges()
        self._register_fabric_metrics()
        self.journal = journal
        #: recovery summary after :meth:`recover` (None until then)
        self.recovered: Optional[Dict[str, int]] = None
        if self.journal is not None:
            self._register_journal_metrics()

    def _register_journal_metrics(self) -> None:
        """Journal accounting, registered only when a journal is
        attached so an unjournaled service's exposition is unchanged."""
        self._journal_appends = self.registry.counter(
            "repro_journal_appends", "Journal events appended")
        self._journal_replayed = self.registry.counter(
            "repro_journal_replayed_events",
            "Journal events replayed at startup")
        self._journal_recovered = self.registry.counter(
            "repro_journal_recovered_jobs",
            "Jobs restored from the journal at startup")
        self._journal_requeued = self.registry.counter(
            "repro_journal_requeued_runs",
            "Unsettled runs of recovered jobs re-queued at startup")

    def _register_fabric_metrics(self) -> None:
        """Lease-queue accounting and its aggregation over the worker
        registry (the in-process lessee counts as a worker)."""
        self._lease_granted = self.registry.counter(
            "repro_lease_granted", "Leases granted to workers")
        self._lease_runs_leased = self.registry.counter(
            "repro_lease_runs_leased", "Run keys handed out under leases")
        self._lease_settled = self.registry.counter(
            "repro_lease_settled",
            "Worker-settled run keys by outcome",
            labelnames=("outcome",),
        )
        self._lease_expired = self.registry.counter(
            "repro_lease_expired", "Leases reaped past their TTL")
        self._lease_requeued = self.registry.counter(
            "repro_lease_requeued_runs",
            "Run keys returned to the pending queue by lease expiry")
        self.registry.gauge(
            "repro_lease_active", "Leases currently held by workers"
        ).set_function(lambda: self.leases.active_leases)
        self.registry.gauge(
            "repro_lease_pending_runs", "Run keys awaiting a worker"
        ).set_function(lambda: self.leases.pending_runs)
        fleet_workers = self.registry.gauge(
            "repro_fleet_workers",
            "Registered workers by liveness state",
            labelnames=("state",),
        )
        for state in ("live", "stale"):
            fleet_workers.labels(state).set_function(
                lambda state=state: self.workers.count(state)
            )
        self._fleet_expired = self.registry.counter(
            "repro_fleet_workers_expired",
            "Workers dropped from the registry after prolonged silence")
        self._fleet_runs = self.registry.counter(
            "repro_fleet_runs",
            "Worker-settled runs by worker and outcome",
            labelnames=("worker", "source"),
        )
        self._fleet_sim_cycles = self.registry.counter(
            "repro_fleet_sim_cycles",
            "Simulated cycles settled by the fleet (from settle timing)")
        self._fleet_sim_seconds = self.registry.counter(
            "repro_fleet_sim_seconds",
            "Simulation wall-seconds settled by the fleet")
        self._fleet_settle_seconds = self.registry.histogram(
            "repro_fleet_settle_seconds",
            "Per-run simulation wall time by worker (from settle timing)",
            labelnames=("worker",),
        )
        self.registry.gauge(
            "repro_fleet_cycles_per_second",
            "Aggregate reported throughput of the live fleet",
        ).set_function(self.workers.fleet_cycles_per_second)

    def _register_gauges(self) -> None:
        """Expose live scheduler state as read-at-scrape-time gauges."""
        gauges = (
            ("queue_depth", "Jobs waiting to start",
             lambda: len(self._waiting)),
            ("queue_limit", "Waiting-job bound (429 past it)",
             lambda: self.max_queue),
            ("active_jobs", "Jobs executing right now",
             lambda: len(self._active)),
            ("max_active", "Concurrent-job bound",
             lambda: self.max_active),
            ("draining", "1 while shutting down, else 0",
             lambda: int(self.draining)),
            ("result_cache_records", "In-memory completed-run records",
             lambda: len(self._records)),
            ("store_hit_rate", "runs_store / (runs_store + runs_fresh)",
             self._store_hit_rate),
        )
        for name, help_text, fn in gauges:
            self.registry.gauge(
                f"repro_service_{name}", help_text
            ).set_function(fn)
        jobs_by_state = self.registry.gauge(
            "repro_service_jobs", "Known jobs by state",
            labelnames=("state",),
        )
        for state in ("queued", "running", "done", "failed"):
            jobs_by_state.labels(state).set_function(
                lambda state=state: sum(
                    1 for job in self.jobs.values() if job.state == state
                )
            )
        if self.store is not None:
            self.registry.gauge(
                "repro_service_store_records", "Live result-store records"
            ).set_function(lambda: self.store.info()["records"])
            self.registry.gauge(
                "repro_service_store_size_bytes", "Result-store file size"
            ).set_function(lambda: self.store.info()["size_bytes"])

    def _store_hit_rate(self) -> float:
        served = (
            self._counters["runs_store"].value
            + self._counters["runs_fresh"].value
        )
        return self._counters["runs_store"].value / served if served else 0.0

    # ------------------------------------------------------------------
    # write-ahead journal: every lifecycle transition lands on disk
    # before (submit) or as (settle/done/lease) it takes effect
    def _journal_event(self, event: str, **fields) -> None:
        if self.journal is None or self.journal.closed:
            return
        try:
            self.journal.append(event, **fields)
        except OSError as error:
            # durability is gone, but the accepted work can still
            # finish: warn loudly and stop journaling instead of
            # killing the coordinator mid-fleet
            self.journal.close()
            print(
                f"repro serve: journal write failed ({error}); "
                "journaling disabled for this process",
                file=sys.stderr, flush=True,
            )
            return
        self._journal_appends.inc()

    async def recover(self) -> Optional[Dict[str, int]]:
        """Replay the journal against the store before serving.

        Jobs whose journal says they finished are restored straight
        into history (their snapshots and SSE ``done`` events serve
        immediately); jobs accepted but unfinished are re-queued
        through the normal execution path, where keys already settled
        into the :class:`~repro.engine.store.ResultStore` serve warm
        and only the true remainder re-enters the lease queue.
        Journaled *error* settles re-run rather than replaying -- a
        restart retries runs that died with
        the previous incarnation.  Leases of the dead incarnation are
        expired by construction: the :class:`~repro.service.leases.
        LeaseManager` starts empty, so a surviving worker's late settle
        hits the settle-pending/410 path exactly like a reaped lease.

        Recovered jobs bypass the waiting-queue bound: they were
        accepted once and must not bounce with 429 semantics.

        Returns:
            The recovery summary (also kept as :attr:`recovered`), or
            ``None`` when no journal is attached.
        """
        if self.journal is None:
            return None
        self._loop = asyncio.get_running_loop()
        replay = await self._loop.run_in_executor(
            None, load_journal, self.journal.path
        )
        summary = {
            "events": replay.events,
            "skipped_corrupt": replay.skipped["corrupt"],
            "skipped_stale": replay.skipped["stale"],
            "recovered_jobs": 0,
            "recovered_done": 0,
            "requeued_jobs": 0,
            "requeued_runs": 0,
            "unrecoverable_jobs": 0,
        }
        self._journal_replayed.inc(replay.events)
        for entry in replay.jobs.values():
            try:
                job = restore_job(entry)
            except ValueError as error:
                summary["unrecoverable_jobs"] += 1
                print(
                    f"repro serve: skipping unrecoverable journal entry "
                    f"{str(entry.get('job'))[:12]}: {error}",
                    file=sys.stderr, flush=True,
                )
                continue
            self.jobs[job.id] = job
            self._journal_recovered.inc()
            summary["recovered_jobs"] += 1
            if job.done:
                summary["recovered_done"] += 1
                continue
            settled_ok = sum(
                1 for source, error in entry["settled"].values()
                if error is None and source != "error"
            )
            unsettled = max(0, len(job.specs) - settled_ok)
            summary["requeued_jobs"] += 1
            summary["requeued_runs"] += unsettled
            self._journal_requeued.inc(unsettled)
            self._waiting.append(job)
        if self._waiting:
            self._pump()
        self.recovered = summary
        return summary

    # ------------------------------------------------------------------
    def submit(self, request: SweepRequest) -> Tuple[Job, bool]:
        """Submit a sweep; returns ``(job, created)``.

        ``created`` is ``False`` when the submission coalesced onto an
        already queued/running identical job.

        Raises:
            Draining: the service is shutting down.
            QueueFull: the waiting queue is at capacity.
            InvalidRequest: (from spec building) malformed request.
        """
        if self.draining:
            raise Draining("service is draining; not accepting jobs")
        self._loop = asyncio.get_running_loop()
        job = Job(request, request.to_specs())
        existing = self.jobs.get(job.id)
        if existing is not None and not existing.done:
            self._counters["jobs_coalesced"].inc()
            return existing, False
        # a job that can start immediately never counts against the
        # waiting bound; only jobs that would actually queue do
        if (
            len(self._active) >= self.max_active
            and len(self._waiting) >= self.max_queue
        ):
            raise QueueFull(
                f"queue full ({len(self._waiting)}/{self.max_queue} "
                "jobs waiting)"
            )
        self._counters["jobs_submitted"].inc()
        submitted_ns = time.time_ns()
        with trace_scope(job.trace_id):
            record_span(
                "submit", submitted_ns, submitted_ns, cat="job",
                args={"job": job.id[:12], "total": len(job.specs)},
            )
        self.jobs[job.id] = job
        # write-ahead: the acceptance (request + full canonical specs)
        # is durable before the 202 leaves the process, so a crash at
        # any later point can re-run the job from the journal alone
        self._journal_event(
            EV_JOB_ACCEPTED,
            job=job.id,
            request=request.as_dict(),
            specs=[
                {"key": key, "spec": spec_to_dict(spec)}
                for key, spec in job.specs.items()
            ],
        )
        self._waiting.append(job)
        self._prune_history()
        self._pump()
        return job, True

    def _prune_history(self) -> None:
        """Drop the oldest finished jobs beyond the history bound."""
        finished = [j for j in self.jobs.values() if j.done]
        excess = len(finished) - JOB_HISTORY
        if excess <= 0:
            return
        finished.sort(key=lambda j: j.finished or 0.0)
        for job in finished[:excess]:
            self.jobs.pop(job.id, None)
            self._subscribers.pop(job.id, None)

    def _pump(self) -> None:
        """Start waiting jobs while active slots are free."""
        while self._waiting and len(self._active) < self.max_active:
            job = self._waiting.popleft()
            task = self._loop.create_task(self._run_job(job))
            self._active[job.id] = task
            task.add_done_callback(
                lambda _t, job_id=job.id: self._job_task_done(job_id)
            )

    def _job_task_done(self, job_id: str) -> None:
        self._active.pop(job_id, None)
        self._pump()

    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        """Execute one job: cache, attach, queue, settle, finish."""
        self._counters["jobs_executed"].inc()
        job_started_ns = time.time_ns()
        job.mark_running()
        self._emit(job, {"event": "state", "state": "running"})

        owned: List[asyncio.Future] = []
        attached: Dict[str, asyncio.Future] = {}
        for key, spec in job.specs.items():
            inflight = self._inflight.get(key)
            if inflight is not None:
                # single-flight: someone else is simulating this key
                self._counters["keys_coalesced"].inc()
                attached[key] = inflight
            elif self.result_record(key) is not None:
                self._settle(job, key, "store")
            else:
                # settling this key (see settle) resolves and pops it
                future = self._inflight[key] = self._loop.create_future()
                owned.append(future)
                self.leases.add(key, (spec, job))

        if owned:
            self._ensure_tasks()
            self._wake_lessees()
            for future in owned:
                await future

        for key, future in attached.items():
            source, error = await future
            self._settle(
                job, key, "coalesced" if error is None else "error", error
            )

        job.finish(self._failures.pop(job.id, None))
        self._journal_event(
            EV_JOB_DONE, job=job.id, state=job.state, error=job.error
        )
        with trace_scope(job.trace_id):
            record_span(
                "job", job_started_ns, time.time_ns(), cat="job",
                args={
                    "job": job.id[:12], "state": job.state,
                    "total": job.counters["total"],
                    "dispatched": len(owned), "attached": len(attached),
                },
            )
        self._emit(job, {"event": "done", "job": job.snapshot()})

    def _ensure_tasks(self) -> None:
        """Start the reaper and, given an engine, the in-process lessee."""
        if self._reaper is None or self._reaper.done():
            self._reaper = self._loop.create_task(self._reap_loop())
        if self.engine is not None and (
            self._lessee is None or self._lessee.done()
        ):
            self._lessee = self._loop.create_task(self._lessee_loop())

    # ------------------------------------------------------------------
    # the in-process lessee: a local service's one worker
    async def _lessee_loop(self) -> None:
        """Lease every pending key at once -- one ``run_specs`` call, so
        one process pool per batch -- under a TTL that never expires
        (the lessee dies only with the process), until :meth:`drain`."""
        while True:
            lease = self._lease(LESSEE, self.leases.pending_runs, math.inf)
            if lease is None:
                await self._work_signal.wait()
            else:
                await self._execute(lease)

    async def _execute(self, lease: Lease) -> None:
        """Run one lessee lease, settling each outcome as it streams in.

        If ``run_specs`` raises as a whole, every key it left unsettled
        settles as an error carrying the exception text, and each owning
        job ends ``failed`` with it.
        """
        loop = asyncio.get_running_loop()
        arrived: asyncio.Queue = asyncio.Queue()

        def on_outcome(outcome: RunOutcome) -> None:
            # engine thread: serialise here, off the event loop
            run = {"key": outcome.key}
            if outcome.ok:
                run["result"] = result_to_dict(outcome.result)
            else:
                run["error"] = outcome.error
            loop.call_soon_threadsafe(arrived.put_nowait, run)

        specs = [spec for spec, _job in lease.runs.values()]
        call = loop.run_in_executor(None, functools.partial(
            self.engine.run_specs, specs, on_outcome=on_outcome,
        ))
        # lands behind every outcome the engine thread posted
        call.add_done_callback(lambda _call: arrived.put_nowait(None))
        finished = False
        while not finished:
            runs = [await arrived.get()]
            while not arrived.empty():
                runs.append(arrived.get_nowait())
            finished = runs[-1] is None
            if finished:
                runs.pop()
            if runs:
                await self.settle(lease.lease_id, runs, attribute=False)

        failure: Optional[str] = None
        try:
            call.result()
        except Exception as error:  # wholesale engine failure
            failure = f"{type(error).__name__}: {error}"
            self._failures.update(
                (job.id, failure) for _spec, job in lease.runs.values())
        if lease.runs:
            message = failure or "engine returned without settling"
            await self.settle(lease.lease_id, [
                {"key": key, "error": message} for key in list(lease.runs)
            ], attribute=False)

    # ------------------------------------------------------------------
    # the lease queue: reaping, long polls and grants
    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(LEASE_REAP_INTERVAL)
            self.reap_expired()

    def reap_expired(self) -> None:
        """Expire overdue leases: unsettled keys re-enter the pending
        queue, and keys past their attempt budget settle as errors so
        their jobs finish instead of hanging on a poison run.  Workers
        silent past the registry's expiry window are dropped on the
        same tick."""
        dead_workers = self.workers.expire()
        if dead_workers:
            self._fleet_expired.inc(len(dead_workers))
        reaped, abandoned = self.leases.expire()
        if not reaped:
            return
        self._lease_expired.inc(len(reaped))
        for lease in reaped:
            self._journal_event(
                EV_LEASE_EXPIRED, lease=lease.lease_id, worker=lease.worker,
                keys=list(lease.runs),
            )
        requeued = sum(len(lease.runs) for lease in reaped) - len(abandoned)
        if requeued:
            self._lease_requeued.inc(requeued)
            self._wake_lessees()
        for key, (spec, job) in abandoned:
            message = (
                f"abandoned after {MAX_ATTEMPTS} lease attempts "
                "(every worker that leased this run died or stalled)"
            )
            self._lease_settled.labels("abandoned").inc()
            self._settle(job, key, "error", message)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(("error", message))

    def _wake_lessees(self) -> None:
        """Release the idle lessee and every lease request held in
        :meth:`wait_for_work`.  Edge-triggered: the fired event is
        swapped for a fresh one, so a waiter that finds nothing left
        to grant holds again."""
        fired, self._work_signal = self._work_signal, asyncio.Event()
        fired.set()

    async def wait_for_work(self, timeout: float) -> None:
        """Hold until keys become pending, draining begins, or *timeout*
        seconds pass -- the long-poll half of ``POST /v1/leases``.
        Returns without granting anything: the caller grants through
        :meth:`grant_lease` on the same event loop, so two held
        requests can never receive the same key."""
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._work_signal.wait(), timeout)

    def _lease(
        self, worker: str, max_runs: int, ttl: float
    ) -> Optional[Lease]:
        """Grant *worker* up to *max_runs* pending keys and count it."""
        lease = self.leases.lease(worker, max_runs=max_runs, ttl=ttl)
        if lease is not None:
            self._lease_granted.inc()
            self._lease_runs_leased.inc(len(lease.runs))
            self.workers.record_lease(worker)
        return lease

    def grant_lease(
        self,
        worker: str,
        max_runs: int = DEFAULT_LEASE_RUNS,
        ttl: float = DEFAULT_LEASE_TTL_S,
    ) -> Optional[dict]:
        """Grant an HTTP worker a batch of pending runs (wire form), or
        ``None`` when nothing is pending.  The caller clamps *max_runs*
        and *ttl*; the grant is journaled as lease traffic.

        Leases are granted even while draining: accepted jobs must
        still finish, and workers observe ``draining`` in the grant to
        know they can exit once the queue runs dry.
        """
        lease = self._lease(worker, max_runs, ttl)
        if lease is None:
            return None
        self._journal_event(
            EV_LEASE_GRANTED, lease=lease.lease_id, worker=lease.worker,
            keys=list(lease.runs),
        )
        return {
            "lease": lease.lease_id,
            "worker": lease.worker,
            "ttl": lease.ttl,
            "runs": [
                {
                    "key": digest,
                    "spec": spec_to_dict(payload[0]),
                    # trace context: the owning job's trace id + this
                    # run's span id, adopted by the worker for every
                    # span it emits while executing the run
                    "trace": format_traceparent(
                        payload[1].trace_id, span_id_for_key(digest)
                    ),
                }
                for digest, payload in lease.runs.items()
            ],
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    # settlement: the one path every run outcome takes
    async def settle(
        self,
        lease_id: str,
        runs: List[dict],
        worker: Optional[str] = None,
        attribute: bool = True,
    ) -> Dict[str, object]:
        """Settle reported outcomes of one lease -- the path every run
        takes, shared by ``POST /v1/leases/{id}/settle`` and the
        in-process lessee, and the store's only writer in the service.

        Each run is ``{"key", "result"}`` (wire form) or ``{"key",
        "error"}``, optionally with ``timing``.  Keys are claimed on the
        loop from their lease -- or from the pending queue, where a
        reaped lease's keys wait (the late result is real); keys found
        in neither place are duplicates.  Claimed results are persisted
        off the loop, then the owning jobs settle.  *worker* names the
        ledger entry when the lease no longer does; *attribute* records
        it on each job run (off for the lessee, so local job snapshots
        keep their shape).  Returns ``accepted`` ``(run, spec, job)``
        triples, ``duplicates``, ``lease_known`` and ``remaining``.
        """
        held = self.leases.get(lease_id)
        # read before claiming: accepting the last key retires the lease
        worker = (held.worker if held is not None else worker) or "unknown"
        accepted: List[tuple] = []
        for run in runs:
            payload = (self.leases.settle_key(lease_id, run["key"])
                       or self.leases.settle_pending(run["key"]))
            if payload is not None:
                accepted.append((run, *payload))
        if self.store is not None and any(
            run.get("error") is None for run, _spec, _job in accepted
        ):
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._persist, accepted
                )
            except OSError as error:
                # the results are real: settle them unstored rather
                # than strand their keys
                print(
                    f"repro serve: result store write failed ({error}); "
                    "settling these runs without storing them",
                    file=sys.stderr, flush=True,
                )
        for run, spec, job in accepted:
            key, error = run["key"], run.get("error")
            if error is None:
                self._remember(key, {
                    "key": key,
                    "spec": spec_to_dict(spec),
                    "result": run["result"],
                })
            source = "fresh" if error is None else "error"
            timing = _usable_timing(run.get("timing"))
            self._lease_settled.labels(source).inc()
            self._settle(job, key, source, error,
                         worker=worker if attribute else None, timing=timing)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result((source, error))
            self._record_fleet_settle(worker, source, timing)
        lease = self.leases.get(lease_id)
        return {
            "accepted": accepted,
            "duplicates": len(runs) - len(accepted),
            "lease_known": held is not None,
            "remaining": len(lease.runs) if lease is not None else 0,
        }

    def _persist(self, accepted: List[tuple]) -> None:
        """Append accepted results to the store (executor thread)."""
        store = self.store
        with self._store_lock, store.batched(flush_every=len(accepted)):
            for run, spec, _job in accepted:
                if run.get("error") is None:
                    store.put_record(run["key"], {
                        "schema": store.schema_version,
                        "key": run["key"],
                        "spec": spec_to_dict(spec),
                        "result": run["result"],
                    })

    def _record_fleet_settle(
        self, worker: str, source: str, timing: Optional[dict]
    ) -> None:
        """Fold one accepted settle into the fleet ledger and metrics."""
        self.workers.record_settle(worker, source)
        self._fleet_runs.labels(worker, source).inc()
        if not timing:
            return
        sim_s = max(0.0, float(timing.get("sim_s", 0.0)))
        cycles = max(0, int(timing.get("cycles", 0)))
        self._fleet_sim_seconds.inc(sim_s)
        if cycles:
            self._fleet_sim_cycles.inc(cycles)
        self._fleet_settle_seconds.labels(worker).observe(sim_s)

    def _settle(
        self,
        job: Job,
        key: str,
        source: str,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        timing: Optional[dict] = None,
    ) -> None:
        """Record one run settlement and stream it to subscribers."""
        if source == "error":
            self._counters["runs_error"].inc()
        elif source == "fresh":
            self._counters["runs_fresh"].inc()
        elif source == "store":
            self._counters["runs_store"].inc()
        job.settle_run(key, source, error, worker=worker, timing=timing)
        self._journal_event(
            EV_RUN_SETTLED, job=job.id, key=key, source=source, error=error
        )
        self._emit(job, {
            "event": "run", "key": key, "source": source, "error": error,
            "completed": job.counters["completed"],
            "total": job.counters["total"],
        })

    def _remember(self, key: str, record: dict) -> None:
        self._records[key] = record
        self._records.move_to_end(key)
        while len(self._records) > RESULT_CACHE:
            self._records.popitem(last=False)

    # ------------------------------------------------------------------
    def result_record(self, key: str) -> Optional[dict]:
        """Completed-run record for *key*: memory mirror first, then the
        result store (a hit is mirrored, so later jobs skip the store);
        ``None`` when unknown."""
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
            return record
        stored = self.store.record(key) if self.store is not None else None
        if stored is None:
            return None
        record = {
            "key": key,
            "spec": stored.get("spec"),
            "result": stored.get("result"),
        }
        self._remember(key, record)
        return record

    # ------------------------------------------------------------------
    def subscribe(self, job_id: str) -> asyncio.Queue:
        """Event queue for a job's SSE stream (seeded lazily: the caller
        sends the current snapshot first, then drains this queue)."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id)
        if listeners is None:
            return
        try:
            listeners.remove(queue)
        except ValueError:
            pass
        if not listeners:
            self._subscribers.pop(job_id, None)

    def _emit(self, job: Job, event: dict) -> None:
        for queue in self._subscribers.get(job.id, ()):
            queue.put_nowait(event)

    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new submissions from now on and release every held
        lease request, which answers ``draining: true`` at once."""
        self.draining = True
        self._wake_lessees()

    async def drain(self) -> None:
        """Stop accepting work and wait for queued + active jobs.

        Queued jobs still execute (they were accepted); new submissions
        raise :class:`Draining` the moment this is called.
        """
        self.begin_drain()
        while self._waiting or self._active:
            tasks = list(self._active.values())
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:  # queued but not yet pumped (no free slot this tick)
                await asyncio.sleep(0.01)
        for task in (self._reaper, self._lessee):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._reaper = self._lessee = None
        if self.journal is not None:
            self.journal.close()  # releases the single-writer flock
