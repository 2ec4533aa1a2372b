"""A model check of the :class:`~repro.service.scheduler.JobScheduler`
job ledger.

A hypothesis state machine drives one remote-mode scheduler (no engine:
the machine itself plays the worker fleet) whose lease queue runs on an
injected clock, through generated interleavings of submits of
overlapping key sets, lease grants, settles of any subset of a lease's
keys as results or errors (late settles of a reaped lease included),
and clock advances that reap expired leases up to abandonment.  No run
is simulated: a settled result is a fixed stub payload.  After every
step:

* a job is ``done``/``failed`` exactly when ``completed == total``;
* ``store_hits + fresh + coalesced + errors == completed``;
* every unsettled key of an unfinished job is pending or leased, and
  the job waits on it;
* at most ``max_queue + 1`` jobs are unfinished;

and a final grant-and-settle drain finishes every job.
"""

from __future__ import annotations

import asyncio
import itertools

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cache.stats import CacheStats
from repro.engine.serialize import result_to_dict
from repro.gpu.stats import MemorySystemStats, SimulationResult
from repro.service.jobs import Job, SweepRequest
from repro.service.leases import MAX_ATTEMPTS, LeaseManager
from repro.service.scheduler import JobScheduler, QueueFull

CONFIGS = ("L1-SRAM", "Dy-FUSE")
WORKLOADS = ("ATAX", "BICG", "GEMM")
#: small enough that generated runs reach the 429 bound
MAX_QUEUE = 3


def _subsets(items):
    return [
        list(combo)
        for size in range(1, len(items) + 1)
        for combo in itertools.combinations(items, size)
    ]


#: every smoke-scale slice of CONFIGS x WORKLOADS: 21 requests over 6
#: distinct run keys, so generated jobs overlap
REQUESTS = [
    SweepRequest.from_payload({
        "configs": configs, "workloads": workloads,
        "scale": "smoke", "num_sms": 2,
    })
    for configs in _subsets(CONFIGS)
    for workloads in _subsets(WORKLOADS)
]


def _fake_result(spec) -> dict:
    return result_to_dict(SimulationResult(
        config_name=spec.l1d.name, workload_name=spec.workload,
        cycles=100, instructions=50, l1d=CacheStats(),
        memory=MemorySystemStats(),
    ))


#: run key -> the stub result a settle reports for it
RESULTS = {
    spec.key().digest: _fake_result(spec)
    for spec in REQUESTS[-1].to_specs()
}


class JobLedgerModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.loop = asyncio.new_event_loop()
        self.scheduler = JobScheduler(engine=None, max_queue=MAX_QUEUE)
        self.scheduler.leases = LeaseManager(clock=lambda: self.now)
        # the machine reaps on its own clock: no background reaper task
        self.scheduler._ensure_tasks = lambda: None
        #: lease id -> the keys it was granted, in grant order
        self.granted: dict = {}

    # ------------------------------------------------------------------
    def _unfinished(self) -> list:
        return [job for job in self.scheduler.jobs.values() if not job.done]

    def _tracked(self) -> set:
        """Keys pending or leased on the lease queue."""
        leases = self.scheduler.leases
        return set(leases._pending).union(
            *(lease.runs for lease in leases._leases.values())
        )

    def _grant(self, max_runs: int, ttl: float):
        pending = list(self.scheduler.leases._pending)
        grant = self.scheduler.grant_lease("w", max_runs=max_runs, ttl=ttl)
        if not pending:
            assert grant is None
            return None
        keys = [run["key"] for run in grant["runs"]]
        assert keys == pending[:max_runs]  # FIFO
        for run in grant["runs"]:
            owner = self.scheduler._waiters[run["key"]][0]
            assert run["trace"].split("-")[1] == owner.trace_id
        self.granted[grant["lease"]] = keys
        return grant["lease"]

    def _settle(self, lease_id: str, runs: list) -> None:
        scheduler = self.scheduler
        lease = scheduler.leases.get(lease_id)
        held = set(lease.runs) if lease is not None else set()
        claimable = {
            run["key"] for run in runs
            if run["key"] in held or run["key"] in scheduler.leases._pending
        }
        waiting = {key: list(scheduler._waiters[key]) for key in claimable}
        claim = self.loop.run_until_complete(
            scheduler.settle(lease_id, runs, worker="w"))
        assert {run["key"] for run, _spec, _owner in claim["accepted"]} \
            == claimable
        assert claim["duplicates"] == len(runs) - len(claimable)
        outcome = {run["key"]: run.get("error") for run in runs}
        for key, (owner, *attached) in waiting.items():
            error = outcome[key]
            assert owner.runs[key].source == (
                "fresh" if error is None else "error")
            for job in attached:
                assert job.runs[key].source == (
                    "coalesced" if error is None else "error")

    @staticmethod
    def _run(key: str, error: bool) -> dict:
        if error:
            return {"key": key, "error": "boom"}
        return {"key": key, "result": RESULTS[key]}

    # ------------------------------------------------------------------
    @rule(request=st.sampled_from(REQUESTS))
    def submit(self, request: SweepRequest) -> None:
        scheduler = self.scheduler
        job_id = Job(request, request.to_specs()).id
        existing = scheduler.jobs.get(job_id)
        inflight = set(scheduler._waiters)
        remembered = set(scheduler._records)
        unfinished = len(self._unfinished())

        async def submit():
            return scheduler.submit(request)

        try:
            job, created = self.loop.run_until_complete(submit())
        except QueueFull:
            assert existing is None or existing.done
            assert unfinished == MAX_QUEUE + 1
            return
        if existing is not None and not existing.done:
            assert job is existing and not created
            return
        assert created and unfinished <= MAX_QUEUE
        for key in job.specs:
            if key in inflight:
                assert job in scheduler._waiters[key][1:]
            elif key in remembered:
                assert job.runs[key].source == "store"
            else:
                assert scheduler._waiters[key] == [job]
                assert key in scheduler.leases._pending

    @rule(max_runs=st.integers(1, 8), ttl=st.integers(1, 30))
    def grant(self, max_runs: int, ttl: int) -> None:
        self._grant(max_runs, float(ttl))

    @precondition(lambda self: self.granted)
    @rule(data=st.data())
    def settle(self, data) -> None:
        """Settle any subset of one granted lease's keys, each as a
        result or an error -- the lease may since have been reaped,
        and a key may already be settled."""
        lease_id = data.draw(st.sampled_from(list(self.granted)))
        keys = data.draw(st.lists(
            st.sampled_from(self.granted[lease_id]), unique=True))
        runs = [self._run(key, data.draw(st.booleans())) for key in keys]
        self._settle(lease_id, runs)

    @rule(dt=st.integers(0, 40))
    def advance_and_reap(self, dt: int) -> None:
        scheduler = self.scheduler
        self.now += dt
        doomed = {
            key: list(scheduler._waiters[key])
            for lease in scheduler.leases._leases.values()
            if lease.expired(self.now)
            for key in lease.runs
            if scheduler.leases.attempts(key) >= MAX_ATTEMPTS
        }
        scheduler.reap_expired()
        for key, jobs in doomed.items():
            assert key not in scheduler._waiters
            for job in jobs:
                assert job.runs[key].source == "error"
                assert "abandoned" in job.runs[key].error

    @precondition(lambda self: self.scheduler.leases.pending_runs)
    @rule(max_runs=st.integers(1, 8), ttl=st.integers(1, 30))
    def worker_dies(self, max_runs: int, ttl: int) -> None:
        """Lease a batch and never settle it: its lease lapses at once,
        so a few steps take a key to :data:`MAX_ATTEMPTS`."""
        self._grant(max_runs, float(ttl))
        self.advance_and_reap(ttl)

    @rule()
    def drain(self) -> None:
        """Settle every live lease, then grant and settle until nothing
        is pending: every job finishes."""
        leases = self.scheduler.leases
        for lease_id, lease in list(leases._leases.items()):
            self._settle(lease_id, [
                self._run(key, error=False) for key in list(lease.runs)])
        while leases.pending_runs:
            lease_id = self._grant(64, 10.0)
            self._settle(lease_id, [
                self._run(key, error=False)
                for key in self.granted[lease_id]])
        assert not self._unfinished()
        assert not self.scheduler._waiters
        assert leases.active_leases == 0

    # ------------------------------------------------------------------
    @invariant()
    def ledger_adds_up(self) -> None:
        for job in self.scheduler.jobs.values():
            counters = job.counters
            assert job.done == (counters["completed"] == counters["total"])
            assert counters["completed"] == sum(
                run.state == "done" for run in job.runs.values())
            assert (counters["store_hits"] + counters["fresh"]
                    + counters["coalesced"] + counters["errors"]
                    == counters["completed"])

    @invariant()
    def unsettled_keys_are_queued(self) -> None:
        scheduler = self.scheduler
        tracked = self._tracked()
        assert set(scheduler._waiters) == tracked
        for key, jobs in scheduler._waiters.items():
            assert len({job.id for job in jobs}) == len(jobs)
            for job in jobs:
                assert not job.done and job.runs[key].state != "done"
        for job in self._unfinished():
            for key, run in job.runs.items():
                if run.state != "done":
                    assert key in tracked
                    assert job in scheduler._waiters[key]

    @invariant()
    def admission_bound_holds(self) -> None:
        assert len(self._unfinished()) <= MAX_QUEUE + 1

    def teardown(self) -> None:
        try:
            self.drain()
        finally:
            self.loop.close()


JobLedgerModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestJobLedgerModel = JobLedgerModel.TestCase
