"""Settle-driven jobs over one lease queue.

The scheduler owns the three layers of single-flight coalescing that
let a busy service do dramatically less work than it is asked for:

1. **job level** -- a submission whose content-addressed id matches an
   unfinished job attaches to it instead of starting a duplicate;
2. **run-key level** -- a key already in flight for *another* job gets
   this job added to its waiting list instead of being re-dispatched;
3. **completed-key level** -- keys already settled are served from the
   in-memory record mirror, then the
   :class:`~repro.engine.store.ResultStore`.  A warm store answers a
   whole sweep with **zero** simulations.

**One queue.**  Every accepted job starts inside :meth:`JobScheduler.
submit` (or :meth:`JobScheduler.recover`): its remaining keys queue on
the :class:`~repro.service.leases.LeaseManager`, and every outcome
comes back through :meth:`JobScheduler.settle` -- the store's only
writer -- which settles every job waiting on the key (the owner
``fresh``, the rest ``coalesced``) and finishes each job whose last run
that was.  Given an engine (``repro serve``), one in-process *lessee*
task leases every pending key at once and runs the batch through
:meth:`~repro.engine.engine.ExperimentEngine.run_specs` in a thread-pool
executor, settling outcomes as they stream back via
``call_soon_threadsafe``.  Without one (``repro serve --remote``),
``repro worker`` processes lease over HTTP; an idle worker's request is
a long poll held in :meth:`JobScheduler.wait_for_work` until keys
become pending or draining begins.  A reaper re-queues the keys of
expired leases, so no job hangs on a dead worker.

A submission that would leave more than ``max_queue + 1`` jobs
unfinished raises :class:`QueueFull` (HTTP 429).  All scheduler state
is mutated on the event loop thread only, so job state needs no locks.
With a :class:`~repro.service.journal.JobJournal` attached, every
lifecycle transition is journaled and :meth:`JobScheduler.recover`
replays the log at startup, so a restarted coordinator serves finished
jobs from history and restarts unfinished ones.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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

if TYPE_CHECKING:  # pragma: no cover - only a local service has an engine
    from repro.engine.engine import ExperimentEngine, RunOutcome

__all__ = ["DEFAULT_MAX_QUEUE", "Draining", "JobScheduler", "QueueFull"]

#: default bound on unfinished jobs beyond the first (HTTP 429 past it)
DEFAULT_MAX_QUEUE = 32
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
    """Too many jobs are unfinished to accept another (HTTP 429)."""


class Draining(RuntimeError):
    """The service is shutting down and takes no new work (HTTP 503)."""


class JobScheduler:
    """Single-flight job execution over one lease queue.

    Args:
        engine: a store-less engine the in-process lessee runs every
            leased batch through; ``None`` leaves the queue to workers
            leasing over HTTP.
        store: the durable cache layer, written only by :meth:`settle`.
        max_queue: unfinished jobs admitted beyond the first
            (:class:`QueueFull` past it).
        journal: write-ahead job journal for crash recovery (``None``
            keeps behaviour byte-identical to an unjournaled service).
    """

    def __init__(
        self,
        engine: Optional[ExperimentEngine] = None,
        store: Optional[ResultStore] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        journal: Optional[JobJournal] = None,
    ) -> None:
        self.engine = engine
        self.store = store
        self.max_queue = max(0, max_queue)
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        #: in-flight run key -> the jobs waiting on it, owner first;
        #: a key is here exactly while it is pending, leased or being
        #: persisted by :meth:`settle` (single-flight)
        self._waiters: Dict[str, List[Job]] = {}
        #: fired whenever a job finishes (:meth:`drain` re-checks)
        self._job_finished = asyncio.Event()
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
        #: whole under the lessee (the owning job ends ``failed`` with it)
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
                ("jobs_executed", "Jobs started (submitted or recovered)"),
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
            ("queue_limit",
             "Unfinished jobs admitted beyond the first (429 past it)",
             lambda: self.max_queue),
            ("active_jobs", "Unfinished jobs", self._unfinished),
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
        immediately); jobs accepted but unfinished restart through the
        same path as a submission, where keys already settled into the
        :class:`~repro.engine.store.ResultStore` serve warm and only
        the true remainder re-enters the lease queue.
        Journaled *error* settles re-run rather than replaying -- a
        restart retries runs that died with
        the previous incarnation.  Leases of the dead incarnation are
        expired by construction: the :class:`~repro.service.leases.
        LeaseManager` starts empty, so a surviving worker's late settle
        hits the settle-pending/410 path exactly like a reaped lease.

        Recovered jobs bypass the unfinished-job bound: they were
        accepted once and must not bounce with 429 semantics.

        Returns:
            The recovery summary (also kept as :attr:`recovered`), or
            ``None`` when no journal is attached.
        """
        if self.journal is None:
            return None
        replay = await asyncio.get_running_loop().run_in_executor(
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
            self._start(job)
        self.recovered = summary
        return summary

    # ------------------------------------------------------------------
    def submit(self, request: SweepRequest) -> Tuple[Job, bool]:
        """Submit a sweep and start it; returns ``(job, created)``.

        ``created`` is ``False`` when the submission coalesced onto an
        unfinished identical job.

        Raises:
            Draining: the service is shutting down.
            QueueFull: ``max_queue + 1`` jobs are already unfinished.
            InvalidRequest: (from spec building) malformed request.
        """
        if self.draining:
            raise Draining("service is draining; not accepting jobs")
        job = Job(request, request.to_specs())
        existing = self.jobs.get(job.id)
        if existing is not None and not existing.done:
            self._counters["jobs_coalesced"].inc()
            return existing, False
        unfinished = self._unfinished()
        if unfinished > self.max_queue:
            raise QueueFull(
                f"queue full ({unfinished} jobs unfinished, "
                f"bound {self.max_queue + 1})"
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
        self._prune_history()
        self._start(job)
        return job, True

    def _unfinished(self) -> int:
        return sum(1 for job in self.jobs.values() if not job.done)

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

    def _start(self, job: Job) -> None:
        """Start *job*: settle its completed keys from cache, wait on
        keys another job has in flight, and queue the rest.  The job
        finishes in :meth:`_settle` when its last run settles."""
        self._counters["jobs_executed"].inc()
        job.mark_running()
        queued = False
        for key, spec in job.specs.items():
            waiting = self._waiters.get(key)
            if waiting is not None:
                self._counters["keys_coalesced"].inc()
                waiting.append(job)
            elif self.result_record(key) is not None:
                self._settle(job, key, "store")
            else:
                self._waiters[key] = [job]
                self.leases.add(key, spec)
                queued = True
        if queued:
            self._ensure_tasks()
            self._wake_lessees()

    def _finish(self, job: Job) -> None:
        """Close *job* once its last run has settled."""
        job.finish(self._failures.pop(job.id, None))
        self._journal_event(
            EV_JOB_DONE, job=job.id, state=job.state, error=job.error
        )
        with trace_scope(job.trace_id):
            record_span(
                "job", int(job.started * 1e9), time.time_ns(), cat="job",
                args={"job": job.id[:12], "state": job.state,
                      **job.counters},
            )
        self._emit(job, {"event": "done", "job": job.snapshot()})
        self._job_finished.set()

    def _ensure_tasks(self) -> None:
        """Start the reaper and, given an engine, the in-process lessee."""
        if self._reaper is None or self._reaper.done():
            self._reaper = asyncio.create_task(self._reap_loop())
        if self.engine is not None and (
            self._lessee is None or self._lessee.done()
        ):
            self._lessee = asyncio.create_task(self._lessee_loop())

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
        settles as an error carrying the exception text for every job
        waiting on it, and each owning job ends ``failed`` with it.
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

        call = loop.run_in_executor(None, functools.partial(
            self.engine.run_specs, list(lease.runs.values()),
            on_outcome=on_outcome,
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
                (self._waiters[key][0].id, failure) for key in lease.runs)
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
        for key, _spec in abandoned:
            self._lease_settled.labels("abandoned").inc()
            self._settle_waiters(key, "error", (
                f"abandoned after {MAX_ATTEMPTS} lease attempts "
                "(every worker that leased this run died or stalled)"
            ))

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
                    "spec": spec_to_dict(spec),
                    # trace context: the owning job's trace id + this
                    # run's span id, adopted by the worker for every
                    # span it emits while executing the run
                    "trace": format_traceparent(
                        self._waiters[digest][0].trace_id,
                        span_id_for_key(digest),
                    ),
                }
                for digest, spec in lease.runs.items()
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
        off the loop, then every job waiting on each key settles.
        *worker* names the ledger entry when the lease no longer does;
        *attribute* records it on the owning job's run (off for the
        lessee, so local job snapshots keep their shape).  Returns
        ``accepted`` ``(run, spec, owner)`` triples, ``duplicates``,
        ``lease_known`` and ``remaining``.
        """
        held = self.leases.get(lease_id)
        # read before claiming: accepting the last key retires the lease
        worker = (held.worker if held is not None else worker) or "unknown"
        accepted: List[tuple] = []
        for run in runs:
            spec = (self.leases.settle_key(lease_id, run["key"])
                    or self.leases.settle_pending(run["key"]))
            if spec is not None:
                accepted.append((run, spec, self._waiters[run["key"]][0]))
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
        for run, spec, _owner in accepted:
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
            self._settle_waiters(key, source, error,
                                 worker=worker if attribute else None,
                                 timing=timing)
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

    def _settle_waiters(
        self,
        key: str,
        source: str,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        timing: Optional[dict] = None,
    ) -> None:
        """Settle every job waiting on an in-flight *key*: the owner as
        *source*, the rest ``coalesced`` (or ``error`` alongside it)."""
        owner, *attached = self._waiters.pop(key)
        self._settle(owner, key, source, error, worker=worker, timing=timing)
        for job in attached:
            self._settle(
                job, key, "coalesced" if error is None else "error", error
            )

    def _settle(
        self,
        job: Job,
        key: str,
        source: str,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        timing: Optional[dict] = None,
    ) -> None:
        """Record one run settlement, stream it to subscribers, and
        finish the job when it was the last."""
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
        if job.counters["completed"] == job.counters["total"]:
            self._finish(job)

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
        """Stop accepting work and wait until no job is unfinished.

        Accepted jobs still finish; new submissions raise
        :class:`Draining` the moment this is called.
        """
        self.begin_drain()
        while self._unfinished():
            self._job_finished.clear()
            await self._job_finished.wait()
        for task in (self._reaper, self._lessee):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._reaper = self._lessee = None
        if self.journal is not None:
            self.journal.close()  # releases the single-writer flock
