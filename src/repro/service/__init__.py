"""Simulation-as-a-service: an async HTTP job layer over the engine.

The service turns the content-hash-keyed simulation core into a
multi-client design-space-exploration backend, using nothing but the
standard library (``asyncio`` server, ``urllib`` client):

* :mod:`repro.service.jobs` -- the job model.  A sweep request
  canonicalises to :class:`~repro.engine.spec.RunSpec` s; the job id is
  a content hash over the sorted :class:`~repro.engine.spec.RunKey`
  digests, so *what* is being asked for -- not *when* or *by whom* --
  names the job.
* :mod:`repro.service.scheduler` -- settle-driven jobs over one queue:
  a job starts on submit, its pending run keys queue on the lease
  table, which a local service's in-process lessee drains into
  :class:`~repro.engine.engine.ExperimentEngine` off the event loop,
  and it finishes when its last run settles.
  **Single-flight coalescing**: concurrent identical jobs collapse to
  one execution, overlapping run keys attach to in-flight work, and
  completed keys are served straight from the
  :class:`~repro.engine.store.ResultStore` -- a warm store answers with
  zero simulations.
* :mod:`repro.service.server` -- minimal HTTP/1.1 on
  ``asyncio.start_server``: submit sweeps, poll jobs, stream progress
  over SSE, fetch results by run key, health and metrics endpoints,
  backpressure (429) past the unfinished-job bound and graceful drain on
  SIGTERM.
* :mod:`repro.service.client` -- ``urllib``-based
  :class:`~repro.service.client.ServiceClient` with submit / poll /
  stream helpers (what ``repro submit`` uses).
* :mod:`repro.service.leases` + :mod:`repro.service.worker` -- the
  distributed fabric.  In remote mode (``repro serve --remote``) the
  lease table is served over a TTL-leased pull protocol instead of to
  the lessee; ``repro worker --url`` processes lease batches,
  execute them through :func:`~repro.engine.spec.execute_spec` and
  settle outcomes back, with lease expiry re-queueing a crashed
  worker's runs.  Single-flight holds fleet-wide: the run-key lease is
  the coalescing layer, so two workers can never simulate one key.
* :mod:`repro.service.journal` + :mod:`repro.service.retry` --
  coordinator crash-safety.  ``repro serve --journal PATH``
  write-ahead-journals every job lifecycle event to an append-only
  JSONL log and replays it on startup (finished jobs into history,
  unfinished jobs re-queued, settled keys served warm from the store),
  while the shared :class:`~repro.service.retry.RetryPolicy` gives
  every client and worker capped, jittered, idempotent-only transport
  retries so fleets bridge a restart instead of dying on it.
* :mod:`repro.service.registry` -- fleet observability.  Workers
  heartbeat their identity and throughput (piggybacked on every lease
  and settle) into a TTL'd
  :class:`~repro.service.registry.WorkerRegistry` served at ``GET
  /v1/workers`` and aggregated into ``repro_fleet_*`` metrics; lease
  grants carry a per-job trace context every worker span adopts.

See ``docs/service-api.md`` for the wire API and deployment knobs, and
``docs/distributed.md`` for the lease lifecycle and failure model
(including the coordinator failure model).

Exports resolve lazily (:func:`repro.lazy_exports`): a worker imports the
client, the lease constants and :mod:`repro.service.worker` without the
scheduler, the HTTP server, the journal or ``asyncio``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.jobs": (
        "InvalidRequest", "Job", "SweepRequest", "job_id_for",
    ),
    "repro.service.journal": ("JobJournal", "load_journal", "read_journal"),
    "repro.service.leases": ("Lease", "LeaseManager"),
    "repro.service.registry": ("WorkerRegistry",),
    "repro.service.retry": ("RetryPolicy",),
    "repro.service.scheduler": ("Draining", "JobScheduler", "QueueFull"),
    "repro.service.server": ("BackgroundService", "SimulationService"),
    "repro.service.worker": ("run_worker",),
})
