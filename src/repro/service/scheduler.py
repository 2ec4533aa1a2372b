"""Bounded async job queue bridging the event loop to the engine.

The scheduler owns the three layers of single-flight coalescing that
let a busy service do dramatically less work than it is asked for:

1. **job level** -- a submission whose content-addressed id matches a
   queued/running job attaches to it instead of enqueueing a duplicate
   (two clients asking for the same sweep share one execution);
2. **run-key level** -- when a job starts, any of its keys currently
   being simulated by *another* in-flight job are awaited instead of
   re-dispatched (the settling job resolves a future the attached job
   waits on);
3. **completed-key level** -- keys already settled are served from
   cache: the scheduler's in-memory record mirror first, then the
   engine's :class:`~repro.engine.store.ResultStore` (the engine's own
   store lookup).  A warm store answers a whole sweep with **zero**
   simulations.

Engine execution happens *off the event loop* in a thread-pool executor
(the engine itself fans out across worker processes); a lock serialises
engine entries because :class:`~repro.engine.store.ResultStore`'s
batched append handle is not thread-safe.  Jobs beyond ``max_active``
wait in a bounded FIFO queue; submissions past ``max_queue`` raise
:class:`QueueFull`, which the HTTP layer turns into 429 backpressure.

All scheduler state is mutated on the event loop thread only -- the
engine thread's streaming callbacks are marshalled across with
``call_soon_threadsafe`` -- so there are no locks around job state.

**Remote mode** (``remote=True``, ``repro serve --remote``) replaces
the in-process engine dispatch with the worker-pull fabric: a job's
non-coalesced keys are queued on a :class:`~repro.service.leases.
LeaseManager` instead of entering the engine, ``repro worker``
processes lease them over HTTP, and their settlements flow through the
same per-key futures, counters and SSE events as a local engine
outcome.  Coalescing layers 1--3 are unchanged (the run-key lease *is*
layer 2, now fleet-wide), and a reaper task on the event loop expires
dead workers' leases back into the queue so no job hangs on a crash.
An idle worker's lease request is a long poll: the HTTP layer holds it
in :meth:`JobScheduler.wait_for_work`, which one wake signal releases
whenever keys become pending (a job's dispatch -- journal recovery
included -- or the reaper re-queueing an expired lease) or draining
begins, so a submitted job starts at once instead of after a poll.

With a :class:`~repro.service.journal.JobJournal` attached, every
lifecycle transition is journaled -- acceptance (write-ahead: before
the 202), settles, terminal states, lease grants/expiries -- and
:meth:`JobScheduler.recover` replays the log at startup so a restarted
coordinator serves finished jobs from history and re-queues unfinished
ones instead of forgetting them.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import sys
import threading
import time
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.engine import ExperimentEngine, RunOutcome
from repro.engine.serialize import result_to_dict
from repro.engine.spec import RunSpec, spec_to_dict
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
#: default bound on in-memory completed-run records (LRU evicted)
DEFAULT_RESULT_CACHE = 4096
#: default count of finished jobs kept for GET /v1/jobs/{id}
DEFAULT_JOB_HISTORY = 256


class QueueFull(RuntimeError):
    """The waiting queue is at capacity (HTTP 429)."""


class Draining(RuntimeError):
    """The service is shutting down and takes no new work (HTTP 503)."""


class JobScheduler:
    """Single-flight job execution over an :class:`ExperimentEngine`.

    Args:
        engine: executes the non-coalesced remainder of every job; its
            store (if any) is the durable cache layer.
        max_queue: waiting-job bound (:class:`QueueFull` past it).
        max_active: concurrently executing job bound.
        result_cache: in-memory completed-record bound (LRU).
        job_history: finished jobs retained for later GETs.
        remote: dispatch runs to pulling workers (lease protocol)
            instead of the in-process engine.
        lease_reap_interval: reaper tick for expiring dead leases
            (remote mode only).
        journal: write-ahead job journal for crash recovery (``None``
            keeps behaviour byte-identical to an unjournaled service).
    """

    def __init__(
        self,
        engine: ExperimentEngine,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_active: int = DEFAULT_MAX_ACTIVE,
        result_cache: int = DEFAULT_RESULT_CACHE,
        job_history: int = DEFAULT_JOB_HISTORY,
        remote: bool = False,
        lease_reap_interval: float = 0.25,
        journal: Optional[JobJournal] = None,
    ) -> None:
        self.engine = engine
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
        self._record_limit = max(0, result_cache)
        self._job_history = max(0, job_history)
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        # engine entries are serialised: the store's batched handle (and
        # the engine's settle bookkeeping) is single-threaded by design
        self._engine_lock = threading.Lock()
        self.remote = bool(remote)
        self.leases = LeaseManager()
        self.workers = WorkerRegistry()
        self._reap_interval = max(0.05, float(lease_reap_interval))
        self._reaper: Optional[asyncio.Task] = None
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
        if self.remote:
            self._register_lease_metrics()
            self._register_fleet_metrics()
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

    def _register_lease_metrics(self) -> None:
        """Lease-fabric accounting, registered only in remote mode so a
        local service's exposition is unchanged."""
        self._lease_granted = self.registry.counter(
            "repro_lease_granted", "Leases granted to pulling workers")
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

    def _register_fleet_metrics(self) -> None:
        """Fleet-level aggregation over the worker registry, registered
        only in remote mode so a local service's exposition is
        unchanged (same gating as the lease families)."""
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
        if self.engine.store is not None:
            self.registry.gauge(
                "repro_service_store_records", "Live result-store records"
            ).set_function(lambda: self.engine.store.info()["records"])
            self.registry.gauge(
                "repro_service_store_size_bytes", "Result-store file size"
            ).set_function(lambda: self.engine.store.info()["size_bytes"])

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
        and only the true remainder simulates again (or re-enters the
        lease queue in remote mode).  Journaled *error* settles re-run
        rather than replaying -- a restart retries runs that died with
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

    @property
    def metrics(self) -> Dict[str, int]:
        """The historical counter-dict view (read-only snapshot)."""
        return {
            name: int(counter.value)
            for name, counter in self._counters.items()
        }

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    @property
    def active_jobs(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------
    def submit(
        self,
        request: SweepRequest,
        specs: Optional[List[RunSpec]] = None,
    ) -> Tuple[Job, bool]:
        """Submit a sweep; returns ``(job, created)``.

        ``created`` is ``False`` when the submission coalesced onto an
        already queued/running identical job.  *specs* lets the caller
        pre-build the run specs off the event loop (``trace:<path>``
        workloads hash their file during spec building); when omitted
        they are built here.

        Raises:
            Draining: the service is shutting down.
            QueueFull: the waiting queue is at capacity.
            InvalidRequest: (from spec building) malformed request.
        """
        if self.draining:
            raise Draining("service is draining; not accepting jobs")
        self._loop = asyncio.get_running_loop()
        job = Job(request, specs if specs is not None else request.to_specs())
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
        excess = len(finished) - self._job_history
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
        """Execute one job: cache, attach, dispatch, settle, finish."""
        self._counters["jobs_executed"].inc()
        job_started_ns = time.time_ns()
        job.mark_running()
        self._emit(job, {"event": "state", "state": "running"})

        dispatch: List[RunSpec] = []
        owned: List[str] = []
        attached: Dict[str, asyncio.Future] = {}
        for key, spec in job.specs.items():
            inflight = self._inflight.get(key)
            if inflight is not None:
                # single-flight: someone else is simulating this key
                self._counters["keys_coalesced"].inc()
                attached[key] = inflight
            elif key in self._records:
                self._records.move_to_end(key)
                self._settle(job, key, "store")
            elif self.remote and self._stored_record(key) is not None:
                # locally the engine's own store lookup serves this; in
                # remote mode nothing enters the engine, so the store
                # check happens here before a key is queued for workers
                self._settle(job, key, "store")
            else:
                dispatch.append(spec)
                owned.append(key)
                self._inflight[key] = self._loop.create_future()

        failure: Optional[str] = None
        if dispatch and self.remote:
            await self._run_remote(job, dispatch, owned)
        elif dispatch:
            loop = self._loop

            def on_outcome(outcome: RunOutcome) -> None:
                # engine thread -> event loop
                loop.call_soon_threadsafe(
                    self._settle_from_engine, job, outcome
                )

            def call() -> None:
                with self._engine_lock:
                    self.engine.run_specs(
                        dispatch, progress=None, on_outcome=on_outcome
                    )

            try:
                await loop.run_in_executor(None, call)
            except Exception as error:  # wholesale engine failure
                failure = f"{type(error).__name__}: {error}"
            # resolve any still-open owned keys (normally none; on a
            # wholesale failure the attached jobs must not hang)
            for key in owned:
                future = self._inflight.pop(key, None)
                if future is None:
                    continue
                message = failure or "engine returned without settling"
                self._settle(job, key, "error", message)
                if not future.done():
                    future.set_result(("error", message))

        for key, future in attached.items():
            source, error = await future
            self._settle(
                job, key, "coalesced" if error is None else "error", error
            )

        job.finish(failure)
        self._journal_event(
            EV_JOB_DONE, job=job.id, state=job.state, error=job.error
        )
        with trace_scope(job.trace_id):
            record_span(
                "job", job_started_ns, time.time_ns(), cat="job",
                args={
                    "job": job.id[:12], "state": job.state,
                    "total": job.counters["total"],
                    "dispatched": len(dispatch), "attached": len(attached),
                },
            )
        self._emit(job, {"event": "done", "job": job.snapshot()})

    # ------------------------------------------------------------------
    # remote mode: lease-based worker-pull dispatch
    def _stored_record(self, key: str) -> Optional[dict]:
        """Store lookup for remote dispatch (mirrors the hit into the
        in-memory record cache so later jobs skip the store)."""
        if self.engine.store is None:
            return None
        stored = self.engine.store.record(key)
        if stored is None:
            return None
        self._remember(key, {
            "key": key,
            "spec": stored.get("spec"),
            "result": stored.get("result"),
        })
        return stored

    async def _run_remote(
        self, job: Job, dispatch: List[RunSpec], owned: List[str]
    ) -> None:
        """Queue this job's owned keys for workers and await settlement.

        The settle path (:meth:`claim_settlements` /
        :meth:`finish_settlements`, and the reaper's abandon branch)
        does the actual settling and resolves each key's in-flight
        future; this coroutine only waits for all of them, exactly as
        the local branch waits for the engine call to return.
        """
        self._ensure_reaper()
        for key, spec in zip(owned, dispatch):
            self.leases.add(key, (spec, job))
        self._wake_lessees()
        # hold references now: settlement pops the futures from _inflight
        futures = [self._inflight[key] for key in owned]
        for future in futures:
            await future

    def _ensure_reaper(self) -> None:
        if self._reaper is None or self._reaper.done():
            self._reaper = self._loop.create_task(self._reap_loop())

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self._reap_interval)
            self.reap_expired()

    def reap_expired(self) -> None:
        """Expire overdue leases: unsettled keys re-enter the pending
        queue, and keys past their attempt budget settle as errors so
        their jobs finish instead of hanging on a poison run.  Workers
        silent past the registry's expiry window are dropped on the
        same tick."""
        dead_workers = self.workers.expire()
        if dead_workers and self.remote:
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
        """Release every lease request held in :meth:`wait_for_work`.
        Edge-triggered: the fired event is swapped for a fresh one, so
        a request that finds nothing left to grant holds again."""
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

    def grant_lease(
        self,
        worker: str,
        max_runs: int = DEFAULT_LEASE_RUNS,
        ttl: float = DEFAULT_LEASE_TTL_S,
    ) -> Optional[dict]:
        """Grant a worker a batch of pending runs (wire form), or
        ``None`` when nothing is pending.

        Leases are granted even while draining: accepted jobs must
        still finish, and workers observe ``draining`` in the grant to
        know they can exit once the queue runs dry.
        """
        lease = self.leases.lease(worker, max_runs=max_runs, ttl=ttl)
        if lease is None:
            return None
        self._lease_granted.inc()
        self._lease_runs_leased.inc(len(lease.runs))
        self.workers.record_lease(lease.worker)
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

    def claim_settlements(
        self, lease_id: str, runs: List[dict]
    ) -> Dict[str, object]:
        """Settle phase 1 (event loop): pop each reported key from its
        lease -- or from the pending queue, where a reaped lease's keys
        wait (the late result is real, so it still counts).

        Keys found in neither place are duplicates of a settlement that
        already happened (or runs now owned by another worker's lease)
        and are discarded.  Returns the accepted ``(key, spec, job,
        result_payload, error, timing)`` tuples plus bookkeeping for
        the HTTP response; phase 2 persists off-loop and
        :meth:`finish_settlements` completes the job bookkeeping.
        """
        held = self.leases.get(lease_id)
        lease_known = held is not None
        # captured before settling: accepting the last key retires the
        # lease, and the fleet ledger still needs the worker's name
        lease_worker = held.worker if held is not None else None
        accepted: List[tuple] = []
        duplicates = 0
        for run in runs:
            key = run["key"]
            payload = self.leases.settle_key(lease_id, key)
            if payload is None:
                payload = self.leases.settle_pending(key)
            if payload is None:
                duplicates += 1
                continue
            spec, job = payload
            timing = run.get("timing")
            accepted.append((
                key, spec, job, run.get("result"), run.get("error"),
                timing if isinstance(timing, dict) else None,
            ))
        lease = self.leases.get(lease_id)
        return {
            "accepted": accepted,
            "duplicates": duplicates,
            "lease_known": lease_known,
            "worker": lease_worker,
            "remaining": len(lease.runs) if lease is not None else 0,
        }

    def finish_settlements(
        self, accepted: List[tuple], worker: Optional[str] = None
    ) -> None:
        """Settle phase 3 (event loop): mirror results, settle owning
        jobs and resolve in-flight futures -- the remote twin of
        :meth:`_settle_from_engine`.  *worker* attributes the runs in
        the fleet ledger (``repro_fleet_runs``, ``GET /v1/workers``)."""
        worker = worker or "unknown"
        for key, spec, job, result_payload, error, timing in accepted:
            if error is None:
                self._remember(key, {
                    "key": key,
                    "spec": spec_to_dict(spec),
                    "result": result_payload,
                })
                source = "fresh"
            else:
                source = "error"
            self._lease_settled.labels(source).inc()
            self._record_fleet_settle(worker, source, timing)
            self._settle(job, key, source, error, worker=worker,
                         timing=timing)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result((source, error))

    def _record_fleet_settle(
        self, worker: str, source: str, timing: Optional[dict]
    ) -> None:
        """Fold one accepted settle into the fleet ledger and metrics."""
        self.workers.record_settle(worker, source)
        self._fleet_runs.labels(worker, source).inc()
        if not timing:
            return
        try:
            sim_s = max(0.0, float(timing.get("sim_s", 0.0)))
            cycles = max(0, int(timing.get("cycles", 0)))
        except (TypeError, ValueError):
            return
        self._fleet_sim_seconds.inc(sim_s)
        if cycles:
            self._fleet_sim_cycles.inc(cycles)
        self._fleet_settle_seconds.labels(worker).observe(sim_s)

    # ------------------------------------------------------------------
    def _settle_from_engine(self, job: Job, outcome: RunOutcome) -> None:
        """Event-loop side of the engine's streaming outcome callback."""
        key = outcome.key
        if outcome.ok and outcome.result is not None:
            self._remember(key, {
                "key": key,
                "spec": spec_to_dict(outcome.spec),
                "result": result_to_dict(outcome.result),
            })
        source = outcome.source if outcome.ok else "error"
        self._settle(job, key, source, outcome.error)
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result((source, outcome.error))

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
        if self._record_limit <= 0:
            return
        self._records[key] = record
        self._records.move_to_end(key)
        while len(self._records) > self._record_limit:
            self._records.popitem(last=False)

    # ------------------------------------------------------------------
    def result_record(self, key: str) -> Optional[dict]:
        """Completed-run record for *key*: memory mirror first, then the
        engine's result store; ``None`` when unknown."""
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
            return record
        if self.engine.store is not None:
            stored = self.engine.store.record(key)
            if stored is not None:
                return {
                    "key": key,
                    "spec": stored.get("spec"),
                    "result": stored.get("result"),
                }
        return None

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
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self.journal is not None:
            self.journal.close()  # releases the single-writer flock
