"""Coordinator crash-safety: the write-ahead job journal.

Four layers of proof, mirroring the store's crash-test story:

* journal file mechanics -- append/read round trip, torn-tail sealing,
  corrupt/stale line skipping, the single-writer flock, the fsync knob;
* replay as a pure fold -- lifecycle state machines, re-acceptance of
  finished jobs, and :func:`~repro.service.journal.restore_job`'s
  refusal to resurrect mis-keyed or mis-hashed entries;
* the hardened transport layer -- deterministic jittered backoff,
  idempotent-only client retries with explicit per-request timeouts,
  and the worker's poll-floored reconnect pacing;
* end-to-end recovery -- in-process restarts over one journal (local
  and remote mode), and the chaos test: SIGKILL a real ``repro serve``
  coordinator mid-fleet with the whole sweep on a live lease, restart
  it on the same journal/store, and every accepted job completes
  exactly once with results bit-identical to a serial
  :func:`~repro.engine.spec.execute_spec` pass.
"""

import io
import json
import re
import threading
import time
import urllib.error

import pytest

from faultutil import (
    corrupt_line,
    fake_result,
    free_port,
    spawn_coordinator,
    spawn_worker,
    stop_workers,
    truncate_tail,
    wait_for_service,
)
from repro.engine.serialize import result_to_dict
from repro.engine.spec import execute_spec, spec_from_dict, spec_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, SweepRequest
from repro.service.journal import (
    EV_JOB_ACCEPTED,
    EV_JOB_DONE,
    EV_LEASE_GRANTED,
    EV_RUN_SETTLED,
    FSYNC_ENV,
    JOURNAL_SCHEMA,
    JobJournal,
    load_journal,
    read_journal,
    replay_journal,
    restore_job,
)
from repro.service.retry import RetryPolicy
from repro.service.server import BackgroundService
from repro.service.worker import run_worker, transport_delay_s

SWEEP = dict(
    configs="L1-SRAM,By-NVM", workloads="2DCONV,ATAX",
    scale="smoke", num_sms=2, seed=0,
)
SWEEP_TOTAL = 4

#: a one-run slice of SWEEP for the fast single-sim recovery tests
SMALL = dict(configs="L1-SRAM", workloads="2DCONV", scale="smoke", num_sms=2)


#: the L1-SRAM config as every journaled spec below spells it
OLD_L1_SRAM = {
    "name": "L1-SRAM", "kind": "sram", "sram_kb": 32,
    "sram_assoc": 4, "stt_kb": 0, "stt_assoc": 4,
    "features": None, "exact_fa": False, "swap_entries": 3,
    "tag_queue_capacity": 16, "num_cbfs": 128,
    "cbf_counters": 16, "cbf_hashes": 3, "mshr_entries": 32,
    "mshr_max_merge": 8, "dead_threshold": 10,
    "unused_threshold": 14,
}

#: a ``job_accepted`` entry for a ``trace:<path>`` workload, exactly as
#: coordinators that replayed trace files journaled it
OLD_TRACE_JOB = {
    "job": "5dc765164421351c6904e8a8fafc681f06c68323d1c21fddebc8bfcd9b678739",
    "request": {
        "configs": ["L1-SRAM"], "workloads": ["trace:/x"],
        "gpu_profile": "fermi", "scale": "smoke", "seed": 0,
        "num_sms": None, "timeline": 0,
    },
    "specs": [{
        "key": (
            "72596986d88c3074a8c5f19bf53bafc9"
            "59a80df67585144ae286935482af3da8"
        ),
        "spec": {
            "l1d": OLD_L1_SRAM,
            "workload": "trace:/x", "gpu_profile": "fermi",
            "scale": "smoke", "seed": 0, "num_sms": 2, "trace_salt": 0,
            "trace_sha256": "5" * 64,
        },
    }],
}

#: SMALL's ``job_accepted`` entry exactly as coordinators with an
#: in-simulation timeline sampler journaled it: the request carries
#: ``"timeline": 0``, the spec the same fields as today's
OLD_UNSAMPLED_JOB = {
    "job": "9a877ecf32f1c8cb8023bff77a83eb6e7d74829c536d0933d36ed0d4acc66486",
    "request": {
        "configs": ["L1-SRAM"], "workloads": ["2DCONV"],
        "gpu_profile": "fermi", "scale": "smoke", "seed": 0,
        "num_sms": 2, "timeline": 0,
    },
    "specs": [{
        "key": (
            "6f0c764c1071247b9b60857a04602e48"
            "83c649499c634bcbbbba48302065ce66"
        ),
        "spec": {
            "l1d": OLD_L1_SRAM,
            "workload": "2DCONV", "gpu_profile": "fermi",
            "scale": "smoke", "seed": 0, "num_sms": 2, "trace_salt": 0,
        },
    }],
}

#: the same slice submitted with ``"timeline": 50``: its spec carries
#: the sampling interval that was part of its run key
OLD_SAMPLED_JOB = {
    "job": "9334955ee5a8e8afdff6cb64bcd1b194c8e9ff2cb50250b42e061ed2cb776831",
    "request": {
        "configs": ["L1-SRAM"], "workloads": ["2DCONV"],
        "gpu_profile": "fermi", "scale": "smoke", "seed": 0,
        "num_sms": 2, "timeline": 50,
    },
    "specs": [{
        "key": (
            "e9022caff2075653f1b2d1db0b81bcd7"
            "66f43cfaa42e5ef15ffcf22d0bd2a36a"
        ),
        "spec": {
            "l1d": OLD_L1_SRAM,
            "workload": "2DCONV", "gpu_profile": "fermi",
            "scale": "smoke", "seed": 0, "num_sms": 2, "trace_salt": 0,
            "timeline_interval": 50,
        },
    }],
}


def wait_until(predicate, timeout_s=15.0, poll_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise AssertionError(f"timed out waiting for {what}")


def metric_value(exposition: str, name: str, labels: str = "") -> float:
    pattern = re.escape(name + labels) + r"(?:\{\})? ([0-9.eE+-]+)$"
    total = 0.0
    found = False
    for line in exposition.splitlines():
        match = re.match(pattern, line)
        if match:
            total += float(match.group(1))
            found = True
    assert found, f"{name}{labels} not in /metrics"
    return total


def make_job(**overrides) -> Job:
    payload = dict(SMALL)
    payload.update(overrides)
    request = SweepRequest.from_payload(payload)
    return Job(request, request.to_specs())


def accepted_fields(job: Job) -> dict:
    """The ``job_accepted`` payload exactly as the scheduler journals it."""
    return dict(
        job=job.id,
        request=job.request.as_dict(),
        specs=[
            {"key": key, "spec": spec_to_dict(spec)}
            for key, spec in job.specs.items()
        ],
    )


def write_accepted_journal(path, **overrides) -> Job:
    """A journal holding one accepted-but-unfinished job (a coordinator
    that crashed right after the 202 went out)."""
    job = make_job(**overrides)
    journal = JobJournal(path)
    journal.append(EV_JOB_ACCEPTED, **accepted_fields(job))
    journal.close()
    return job


# ----------------------------------------------------------------------
class TestJournalFile:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        record = journal.append(EV_JOB_DONE, job="j1", state="done", error=None)
        assert journal.appends == 1
        journal.close()

        events, skipped = read_journal(path)
        assert events == [record]
        assert events[0]["v"] == JOURNAL_SCHEMA
        assert skipped == {"corrupt": 0, "stale": 0}

    def test_missing_file_is_empty(self, tmp_path):
        events, skipped = read_journal(tmp_path / "never-written.jsonl")
        assert events == []
        assert skipped == {"corrupt": 0, "stale": 0}

    def test_torn_tail_skipped_then_sealed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for index in range(3):
            journal.append(EV_RUN_SETTLED, job="j", key=f"k{index}")
        journal.close()
        truncate_tail(path, 5)  # the crash tore the last record

        events, skipped = read_journal(path)
        assert [e["key"] for e in events] == ["k0", "k1"]
        assert skipped["corrupt"] == 1

        # a restarted coordinator seals the torn fragment so the next
        # append starts on its own line
        journal = JobJournal(path)
        journal.append(EV_RUN_SETTLED, job="j", key="k3")
        journal.close()
        events, skipped = read_journal(path)
        assert [e["key"] for e in events] == ["k0", "k1", "k3"]
        assert skipped["corrupt"] == 1

    def test_corrupt_line_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for index in range(3):
            journal.append(EV_RUN_SETTLED, job="j", key=f"k{index}")
        journal.close()
        corrupt_line(path, 1)

        events, skipped = read_journal(path)
        assert [e["key"] for e in events] == ["k0", "k2"]
        assert skipped["corrupt"] == 1

    def test_stale_schema_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append(EV_JOB_DONE, job="j", state="done")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": 99, "ev": "from_the_future"}) + "\n")
            # a non-object line and an event-less object are corrupt,
            # not stale
            handle.write("[1, 2, 3]\n")
            handle.write(json.dumps({"v": JOURNAL_SCHEMA}) + "\n")

        events, skipped = read_journal(path)
        assert [e["ev"] for e in events] == [EV_JOB_DONE]
        assert skipped == {"corrupt": 2, "stale": 1}

    def test_single_writer_flock(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = JobJournal(path)
        with pytest.raises(RuntimeError, match="locked by another"):
            JobJournal(path)
        first.close()
        second = JobJournal(path)  # the lock died with the first writer
        second.close()

    def test_append_after_close_raises(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.close()
        assert journal.closed
        journal.close()  # idempotent
        with pytest.raises(OSError):
            journal.append(EV_JOB_DONE, job="j")

    def test_fsync_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FSYNC_ENV, "always")
        journal = JobJournal(tmp_path / "a.jsonl")
        assert journal.fsync
        journal.append(EV_JOB_DONE, job="j")  # fsync path actually writes
        journal.close()

        monkeypatch.setenv(FSYNC_ENV, "off")
        journal = JobJournal(tmp_path / "b.jsonl")
        assert not journal.fsync
        journal.close()

        # an explicit constructor choice beats the environment
        journal = JobJournal(tmp_path / "c.jsonl", fsync=True)
        assert journal.fsync
        journal.close()

        monkeypatch.setenv(FSYNC_ENV, "sometimes")
        with pytest.raises(ValueError, match=FSYNC_ENV):
            JobJournal(tmp_path / "d.jsonl")


# ----------------------------------------------------------------------
class TestReplayFold:
    def accepted(self, job="J1", ts=100.0):
        return {
            "ev": EV_JOB_ACCEPTED, "job": job, "ts": ts,
            "request": {"configs": ["L1-SRAM"]},
            "specs": [{"key": "k1"}, {"key": "k2"}],
        }

    def test_lifecycle_fold(self):
        events = [
            self.accepted(),
            {"ev": EV_RUN_SETTLED, "job": "J1", "key": "k1",
             "source": "fresh", "error": None},
            {"ev": EV_RUN_SETTLED, "job": "J1", "key": "k2",
             "source": "error", "error": "boom"},
            {"ev": EV_RUN_SETTLED, "job": "GHOST", "key": "k9",
             "source": "fresh", "error": None},  # unknown job: ignored
            {"ev": EV_LEASE_GRANTED, "lease": "L", "keys": ["k1"]},
            {"ev": "hologram_sync", "job": "J1"},  # unknown type: ignored
            {"ev": EV_JOB_DONE, "job": "J1", "state": "done",
             "error": None, "ts": 110.0},
        ]
        replay = replay_journal(events)
        assert replay.events == len(events)
        assert replay.by_event[EV_RUN_SETTLED] == 3
        assert "GHOST" not in replay.jobs

        (entry,) = replay.completed()
        assert replay.incomplete() == []
        assert entry["state"] == "done"
        assert entry["settled"] == {
            "k1": ("fresh", None), "k2": ("error", "boom"),
        }
        assert entry["accepted_ts"] == 100.0
        assert entry["finished_ts"] == 110.0

    def test_settle_after_done_ignored(self):
        replay = replay_journal([
            self.accepted(),
            {"ev": EV_JOB_DONE, "job": "J1", "state": "done"},
            {"ev": EV_RUN_SETTLED, "job": "J1", "key": "k1",
             "source": "fresh", "error": None},
        ])
        assert replay.jobs["J1"]["settled"] == {}

    def test_reaccept_reopens_finished_job(self):
        replay = replay_journal([
            self.accepted(ts=100.0),
            {"ev": EV_RUN_SETTLED, "job": "J1", "key": "k1",
             "source": "fresh", "error": None},
            {"ev": EV_JOB_DONE, "job": "J1", "state": "done"},
            self.accepted(ts=200.0),  # resubmission of a finished job
        ])
        (entry,) = replay.incomplete()
        assert entry["state"] == "accepted"
        assert entry["settled"] == {}  # the old execution's ledger is gone
        assert entry["accepted_ts"] == 200.0


class TestRestoreJob:
    def journaled_entry(self, finished=True):
        job = make_job()
        (key,) = job.specs
        events = [dict(ev=EV_JOB_ACCEPTED, ts=100.0, **accepted_fields(job))]
        if finished:
            events += [
                {"ev": EV_RUN_SETTLED, "job": job.id, "key": key,
                 "source": "fresh", "error": None},
                {"ev": EV_JOB_DONE, "job": job.id, "state": "done",
                 "error": None, "ts": 110.0},
            ]
        return job, replay_journal(events).jobs[job.id]

    def test_finished_entry_restores_settled(self):
        job, entry = self.journaled_entry(finished=True)
        restored = restore_job(entry)
        assert restored.id == job.id
        assert restored.state == "done"
        assert restored.created == 100.0
        assert restored.finished == 110.0
        assert restored.counters["completed"] == 1
        assert restored.counters["fresh"] == 1
        assert restored.counters["errors"] == 0

    def test_unfinished_entry_restores_queued(self):
        # no settles applied: the live scheduler decides warm-vs-rerun
        # per key against the store, not against a stale journal
        job, entry = self.journaled_entry(finished=False)
        entry["settled"]["bogus"] = ("fresh", None)
        restored = restore_job(entry)
        assert restored.id == job.id
        assert restored.state == "queued"
        assert restored.counters["completed"] == 0

    def test_miskeyed_spec_is_unrecoverable(self):
        _, entry = self.journaled_entry()
        entry["specs"][0]["key"] = "0" * 64
        with pytest.raises(ValueError, match="hashes to"):
            restore_job(entry)

    def test_job_id_mismatch_is_unrecoverable(self):
        _, entry = self.journaled_entry()
        entry["job"] = "f" * 64
        with pytest.raises(ValueError, match="rebuilt job hashes"):
            restore_job(entry)

    def test_empty_specs_are_unrecoverable(self):
        _, entry = self.journaled_entry()
        entry["specs"] = []
        with pytest.raises(ValueError, match="no specs"):
            restore_job(entry)


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_deterministic_jitter_within_ceiling(self):
        policy = RetryPolicy(base_s=0.25, cap_s=5.0)
        for attempt in range(1, 11):
            delay = policy.backoff_s(attempt, token="worker-1")
            ceiling = min(5.0, 0.25 * 2 ** (attempt - 1))
            assert 0.5 * ceiling <= delay <= ceiling
            # deterministic: same (token, attempt) -> same delay
            assert delay == policy.backoff_s(attempt, token="worker-1")
        # different tokens de-synchronise (the anti-stampede property)
        assert policy.backoff_s(3, token="worker-1") != policy.backoff_s(
            3, token="worker-2"
        )

    def test_transport_delay_floors_at_poll(self):
        policy = RetryPolicy(base_s=0.25, cap_s=5.0)
        # early failures: --poll is the floor
        assert transport_delay_s(policy, 1, poll_s=2.0, token="w") == 2.0
        # deep failures: the jittered backoff dominates, capped
        delay = transport_delay_s(policy, 10, poll_s=0.1, token="w")
        assert delay == policy.backoff_s(10, token="w")
        assert delay <= policy.cap_s


class _FakeResponse:
    def __init__(self, payload):
        self._data = json.dumps(payload).encode()

    def read(self):
        return self._data

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


class TestClientRetry:
    """Transport behaviour with ``urllib.request.urlopen`` stubbed out
    (no sockets): retry counts, timeouts, and the idempotency policy."""

    def patch(self, monkeypatch, fail_times, payload=None):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append((request.full_url, request.get_method(), timeout))
            if len(calls) <= fail_times:
                raise urllib.error.URLError("connection refused")
            return _FakeResponse(payload if payload is not None else {"ok": 1})

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        return calls

    def client(self):
        # base_s=0 -> zero backoff, so these tests never sleep
        return ServiceClient(
            "http://127.0.0.1:9",
            retry=RetryPolicy(attempts=3, base_s=0.0, cap_s=0.0, timeout_s=7.5),
        )

    def test_idempotent_get_retries_to_success(self, monkeypatch):
        calls = self.patch(monkeypatch, fail_times=2)
        assert self.client().healthz() == {"ok": 1}
        assert len(calls) == 3
        # every attempt carried the explicit per-request timeout
        assert [timeout for _, _, timeout in calls] == [7.5] * 3

    def test_transport_failure_exhausts_attempts(self, monkeypatch):
        calls = self.patch(monkeypatch, fail_times=99)
        with pytest.raises(ServiceError) as excinfo:
            self.client().job("a" * 64)
        assert excinfo.value.status == 0
        assert len(calls) == 3

    def test_submit_is_retried(self, monkeypatch):
        # content-addressed job ids make a replayed submit coalesce
        calls = self.patch(
            monkeypatch, fail_times=1, payload={"job": "x", "created": True},
        )
        assert self.client().submit(**SMALL)["job"] == "x"
        assert len(calls) == 2
        assert calls[0][1] == "POST"

    def test_lease_is_not_retried(self, monkeypatch):
        # a lost grant response strands keys until the TTL reaper runs;
        # the worker loop owns that retry cadence instead
        calls = self.patch(monkeypatch, fail_times=99)
        with pytest.raises(ServiceError) as excinfo:
            self.client().lease(worker="w")
        assert excinfo.value.status == 0
        assert len(calls) == 1

    def test_http_verdict_is_not_retried(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(request.full_url)
            raise urllib.error.HTTPError(
                request.full_url, 404, "not found", None,
                io.BytesIO(b'{"error": "no such job"}'),
            )

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        with pytest.raises(ServiceError) as excinfo:
            self.client().job("a" * 64)
        assert excinfo.value.status == 404
        assert len(calls) == 1


# ----------------------------------------------------------------------
class TestRecoveryInProcess:
    """Restart semantics over one journal, with in-process services."""

    def test_finished_job_restored_to_history(self, tmp_path):
        store = tmp_path / "store.jsonl"
        journal = tmp_path / "journal.jsonl"
        with BackgroundService(
            workers=1, store_path=store, journal=str(journal),
        ) as svc:
            client = ServiceClient(svc.url)
            job_id = client.submit(**SMALL)["job"]
            first = client.wait(job_id, timeout=120)
            assert first["state"] == "done"
            assert first["fresh"] == 1
            appends = svc.service.scheduler.journal.appends
            assert appends == 3  # accepted + settled + done

        with BackgroundService(
            workers=1, store_path=store, journal=str(journal),
        ) as svc:
            client = ServiceClient(svc.url)
            # the job id resolves immediately, ledger intact, without a
            # single journal write by the new incarnation
            snap = client.job(job_id)
            assert snap["state"] == "done"
            assert snap["fresh"] == 1
            assert snap["completed"] == 1
            exposition = client.metrics()
            assert metric_value(exposition, "repro_journal_recovered_jobs") == 1
            assert metric_value(
                exposition, "repro_journal_replayed_events"
            ) == appends
            assert metric_value(exposition, "repro_journal_appends") == 0

            # the SSE stream of a recovered job closes properly: one
            # snapshot, one terminal event
            names = [name for name, _ in client.events(job_id)]
            assert names[0] == "snapshot"
            assert names.count("done") == 1

            # resubmission re-executes warm: every key from the store
            assert client.submit(**SMALL)["job"] == job_id
            warm = client.wait(job_id, timeout=60)
            assert warm["store_hits"] == 1
            assert warm["fresh"] == 0

    def test_incomplete_job_runs_to_done_on_restart(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        job = write_accepted_journal(journal)
        with BackgroundService(
            workers=1, store_path=tmp_path / "store.jsonl",
            journal=str(journal),
        ) as svc:
            recovered = svc.service.scheduler.recovered
            assert recovered["requeued_jobs"] == 1
            assert recovered["requeued_runs"] == 1
            client = ServiceClient(svc.url)
            snap = client.wait(job.id, timeout=120)
            assert snap["state"] == "done"
            assert snap["fresh"] == 1
            assert snap["errors"] == 0
        # the journal now carries the second life's settle + done
        (entry,) = load_journal(journal).completed()
        assert entry["job"] == job.id
        assert entry["state"] == "done"

    def test_old_backend_request_key_replays_to_done(self, tmp_path):
        """Journals written while requests still carried an execution
        ``backend`` field replay: restore ignores the key."""
        journal = tmp_path / "journal.jsonl"
        job = make_job()
        fields = accepted_fields(job)
        fields["request"]["backend"] = "fast"
        writer = JobJournal(journal)
        writer.append(EV_JOB_ACCEPTED, **fields)
        writer.close()
        assert SweepRequest.restore(fields["request"]) == job.request
        with BackgroundService(
            workers=1, no_store=True, journal=str(journal),
        ) as svc:
            assert svc.service.scheduler.recovered["requeued_jobs"] == 1
            snap = ServiceClient(svc.url).wait(job.id, timeout=120)
            assert snap["state"] == "done"
            assert snap["errors"] == 0

    def test_timeline_jobs_from_an_old_journal(self, tmp_path):
        """Coordinators that sampled timelines journaled a ``timeline``
        request key.  An unsampled job replays under its original id
        (restore ignores the key); a sampled one no longer hashes to
        its key, so replay skips it without failing the restart."""
        assert (SweepRequest.restore(OLD_UNSAMPLED_JOB["request"])
                == make_job().request)
        journal = tmp_path / "journal.jsonl"
        writer = JobJournal(journal)
        writer.append(EV_JOB_ACCEPTED, **OLD_SAMPLED_JOB)
        writer.append(EV_JOB_ACCEPTED, **OLD_UNSAMPLED_JOB)
        writer.close()
        with BackgroundService(
            workers=1, no_store=True, journal=str(journal),
        ) as svc:
            recovered = svc.service.scheduler.recovered
            assert recovered["unrecoverable_jobs"] == 1
            assert recovered["requeued_jobs"] == 1
            client = ServiceClient(svc.url)
            snap = client.wait(OLD_UNSAMPLED_JOB["job"], timeout=120)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            with pytest.raises(ServiceError) as excinfo:
                client.job(OLD_SAMPLED_JOB["job"])
            assert excinfo.value.status == 404

    def test_unrecoverable_entry_skipped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        job = make_job()
        fields = accepted_fields(job)
        fields["specs"][0]["key"] = "0" * 64  # journal corruption
        writer = JobJournal(journal)
        writer.append(EV_JOB_ACCEPTED, **fields)
        writer.close()
        with BackgroundService(
            workers=1, no_store=True, journal=str(journal),
        ) as svc:
            assert svc.service.scheduler.recovered["unrecoverable_jobs"] == 1
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as excinfo:
                client.job(job.id)
            assert excinfo.value.status == 404

    def test_trace_file_job_from_an_old_journal_is_unrecoverable(
        self, tmp_path
    ):
        """Coordinators that still replayed trace files journaled specs
        naming a file and its content hash.  Such a job no longer hashes
        to its key, so replay skips it and recovers the rest."""
        journal = tmp_path / "journal.jsonl"
        job = make_job()
        writer = JobJournal(journal)
        writer.append(EV_JOB_ACCEPTED, **OLD_TRACE_JOB)
        writer.append(EV_JOB_ACCEPTED, **accepted_fields(job))
        writer.close()
        with BackgroundService(
            workers=1, no_store=True, journal=str(journal),
        ) as svc:
            recovered = svc.service.scheduler.recovered
            assert recovered["unrecoverable_jobs"] == 1
            assert recovered["requeued_jobs"] == 1
            client = ServiceClient(svc.url)
            snap = client.wait(job.id, timeout=120)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            with pytest.raises(ServiceError) as excinfo:
                client.job(OLD_TRACE_JOB["job"])
            assert excinfo.value.status == 404

    def test_remote_requeue_and_late_settle(self, tmp_path):
        # two-key job journaled as accepted; on a remote-mode restart
        # both keys land back on the lease queue, a settle quoting the
        # dead incarnation's lease id is honoured through the
        # settle-pending path, and a fresh worker finishes the rest
        journal = tmp_path / "journal.jsonl"
        job = write_accepted_journal(journal, workloads="2DCONV,ATAX")
        with BackgroundService(
            remote=True, workers=1, store_path=tmp_path / "store.jsonl",
            journal=str(journal),
        ) as svc:
            client = ServiceClient(svc.url)
            assert client.job(job.id)["state"] in ("queued", "running")
            wait_until(
                lambda: client.leases()["pending_runs"] == 2,
                what="recovered keys on the lease queue",
            )
            key, spec = next(iter(job.specs.items()))
            response = client.settle("dead" * 16, [
                {"key": key, "result": result_to_dict(fake_result(spec))},
            ])
            assert response["settled"] == 1
            assert run_worker(svc.url, name="restart-w", once=True,
                              poll_s=0.05) == 0
            snap = client.wait(job.id, timeout=120)
            assert snap["state"] == "done"
            assert snap["completed"] == 2
            assert snap["errors"] == 0

    def test_unjournaled_service_has_no_journal_surface(self, tmp_path):
        with BackgroundService(workers=1, no_store=True) as svc:
            assert svc.service.scheduler.journal is None
            client = ServiceClient(svc.url)
            job_id = client.submit(**SMALL)["job"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            assert "repro_journal_" not in client.metrics()


# ----------------------------------------------------------------------
class TestCoordinatorCrash:
    """Real ``repro serve`` subprocesses, SIGKILLed and restarted."""

    def test_sigkill_mid_fleet_exactly_once(self, tmp_path):
        port = free_port()
        url = f"http://127.0.0.1:{port}"
        store = tmp_path / "store.jsonl"
        journal = tmp_path / "journal.jsonl"
        spawn = lambda: spawn_coordinator(  # noqa: E731
            port, store=store, journal=journal,
        )
        coordinator = spawn()
        workers = []
        try:
            wait_for_service(url, coordinator)
            client = ServiceClient(url, retry=RetryPolicy(
                attempts=8, base_s=0.1, cap_s=0.5, timeout_s=10.0,
            ))
            accepted = client.submit(**SWEEP)
            job_id = accepted["job"]
            assert accepted["total"] == SWEEP_TOTAL

            # a holder worker leases the whole sweep and sits on it, so
            # the SIGKILL lands with every run in flight on a live lease
            holder = spawn_worker(
                url, "holder", ttl=120, max_runs=SWEEP_TOTAL, hold_s=600,
            )
            workers.append(holder)
            wait_until(
                lambda: EV_LEASE_GRANTED in journal.read_text("utf-8"),
                what="journaled lease grant",
            )
            coordinator.kill()
            coordinator.wait(10)
            stop_workers(holder)
            workers.remove(holder)

            # a surviving worker rides out the outage on jittered
            # backoff instead of crashing against the dead endpoint
            survivor = spawn_worker(url, "survivor", poll=0.1)
            workers.append(survivor)
            time.sleep(0.5)
            assert survivor.poll() is None

            coordinator = spawn()
            wait_for_service(url, coordinator)
            # recovered: the job id resolves on the new incarnation
            assert client.job(job_id)["state"] in ("queued", "running")

            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            assert final["errors"] == 0
            assert final["completed"] == SWEEP_TOTAL
            assert (
                final["fresh"] + final["store_hits"] + final["coalesced"]
            ) == SWEEP_TOTAL
            assert len({run["key"] for run in final["runs"]}) == SWEEP_TOTAL

            # bit-identical to a serial pass over the same specs
            for run in final["runs"]:
                record = client.result(run["key"])
                spec = spec_from_dict(record["spec"])
                assert record["result"] == result_to_dict(execute_spec(spec))

            exposition = client.metrics()
            assert metric_value(
                exposition, "repro_journal_recovered_jobs"
            ) == 1
            assert metric_value(
                exposition, "repro_journal_requeued_runs"
            ) == SWEEP_TOTAL

            # warm rerun: the same sweep resubmitted is pure store hits
            warm = client.wait(client.submit(**SWEEP)["job"], timeout=60)
            assert warm["store_hits"] == SWEEP_TOTAL
            assert warm["fresh"] == 0

            coordinator.terminate()
            assert coordinator.wait(30) == 0
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(10)
            stop_workers(*workers)

    def test_sse_follower_survives_restart(self, tmp_path):
        # events_follow across a SIGKILL/restart: a fresh post-restart
        # snapshot arrives, and exactly one terminal event is delivered
        port = free_port()
        url = f"http://127.0.0.1:{port}"
        store = tmp_path / "store.jsonl"
        journal = tmp_path / "journal.jsonl"
        spawn = lambda: spawn_coordinator(  # noqa: E731
            port, store=store, journal=journal,
        )
        coordinator = spawn()
        workers = []
        try:
            wait_for_service(url, coordinator)
            client = ServiceClient(url, retry=RetryPolicy(
                attempts=8, base_s=0.1, cap_s=0.5, timeout_s=10.0,
            ))
            follower = ServiceClient(url, retry=RetryPolicy(
                attempts=40, base_s=0.1, cap_s=0.5, timeout_s=10.0,
            ))
            job_id = client.submit(
                configs="L1-SRAM", workloads="2DCONV,ATAX",
                scale="smoke", num_sms=2,
            )["job"]

            names, failures = [], []

            def follow():
                try:
                    for name, _payload in follower.events_follow(job_id):
                        names.append(name)
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append(error)

            thread = threading.Thread(target=follow, daemon=True)
            thread.start()
            wait_until(lambda: "snapshot" in names, what="first snapshot")

            coordinator.kill()
            coordinator.wait(10)
            coordinator = spawn()
            wait_for_service(url, coordinator)

            workers.append(spawn_worker(url, "sse-w", poll=0.1))
            thread.join(timeout=300)
            assert not thread.is_alive(), "follower never saw done"
            assert failures == []
            assert names.count("done") == 1
            assert names[-1] == "done"
            # at least the pre-kill snapshot and the post-restart one
            assert names.count("snapshot") >= 2
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(10)
            stop_workers(*workers)


# ----------------------------------------------------------------------
class TestJournalCLI:
    def write_mixed_journal(self, path):
        done_job = make_job()
        (done_key,) = done_job.specs
        open_job = make_job(workloads="ATAX")
        journal = JobJournal(path)
        journal.append(EV_JOB_ACCEPTED, **accepted_fields(done_job))
        journal.append(EV_RUN_SETTLED, job=done_job.id, key=done_key,
                       source="fresh", error=None)
        journal.append(EV_JOB_DONE, job=done_job.id, state="done", error=None)
        journal.append(EV_JOB_ACCEPTED, **accepted_fields(open_job))
        journal.close()
        return done_job, open_job

    def test_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "journal.jsonl"
        done_job, open_job = self.write_mixed_journal(path)
        assert main(["journal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 events" in out
        assert EV_JOB_ACCEPTED in out
        assert done_job.id[:16] in out
        assert open_job.id[:16] in out
        assert "re-queues 1" in out

    def test_json_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "journal.jsonl"
        _done_job, open_job = self.write_mixed_journal(path)
        assert main(["journal", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] == 4
        assert report["by_event"][EV_JOB_ACCEPTED] == 2
        assert report["jobs"] == {
            "total": 2, "done": 1, "failed": 0, "incomplete": 1,
        }
        assert report["incomplete"] == [
            {"job": open_job.id, "runs": 1, "settled": 0},
        ]

    def test_missing_journal_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["journal", str(tmp_path / "nope.jsonl")]) == 2
        assert "no journal" in capsys.readouterr().err
