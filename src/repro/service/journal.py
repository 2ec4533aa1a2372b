"""Write-ahead job journal: coordinator crash-safety for the service.

Without durability, a restarted ``repro serve`` forgets every accepted
job -- queued sweeps vanish, fleets strand mid-lease, and clients poll
ids the new process has never heard of.  The journal closes that gap
the same way the result store survives crashes: an **append-only,
schema-versioned JSONL log** where torn tails and corrupt lines are
skipped on read, never fatal.  Every line is one lifecycle event:

* ``job_accepted``  -- the full canonical request plus every
  ``(run key, spec)`` pair, written *before* the 202 goes out.  This is
  the write-ahead part: an accepted job is re-runnable from its journal
  entry alone (specs are the wire form).
* ``run_settled``   -- one per distinct run (key, source, error).
* ``job_done``      -- terminal state (``done``/``failed``).
* ``lease_granted`` / ``lease_expired`` -- remote-mode lease traffic,
  informational (replay derives nothing from them: every lease of a
  dead incarnation is expired by construction on restart).

Replay (:func:`replay_journal`) is a pure fold over the event stream:
jobs whose last event is ``job_done`` are restored straight into
history; jobs accepted but unfinished are re-queued through the normal
scheduler path, where settled keys are served warm from the
:class:`~repro.engine.store.ResultStore` and only the genuinely
unfinished remainder re-enters the lease queue -- in every mode, since
a local service's in-process lessee leases from that queue like any
remote worker.  Journaled *error* settles are deliberately not replayed
-- a restart is exactly the right moment to retry a run that died with
its worker.

Single-writer discipline mirrors the store's flock story: the journal
file holds an exclusive ``flock`` for the life of the coordinator, so
two coordinators pointed at one journal fail fast instead of
interleaving histories (a SIGKILLed process's lock dies with it).
``REPRO_JOURNAL_FSYNC=always`` upgrades the default flush-per-append to
a full ``fsync`` when the journal must survive power loss, not just
process death.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import pathlib
import time
from typing import Dict, List, Optional, Tuple

from repro.engine.spec import RunKey, spec_from_dict
from repro.service.jobs import Job, SweepRequest

__all__ = [
    "EV_JOB_ACCEPTED", "EV_JOB_DONE", "EV_LEASE_EXPIRED",
    "EV_LEASE_GRANTED", "EV_RUN_SETTLED", "FSYNC_ENV", "JOURNAL_SCHEMA",
    "JobJournal", "JournalReplay", "load_journal", "read_journal",
    "replay_journal", "restore_job",
]

#: journal line schema version; lines with any other ``v`` are skipped
#: (counted as stale) so a newer format never crashes an older reader
JOURNAL_SCHEMA = 1

#: fsync policy knob: ``always`` fsyncs every append (survives power
#: loss); the default flush-per-append survives process death, which is
#: the failure mode the crash tests exercise
FSYNC_ENV = "REPRO_JOURNAL_FSYNC"

EV_JOB_ACCEPTED = "job_accepted"
EV_RUN_SETTLED = "run_settled"
EV_JOB_DONE = "job_done"
EV_LEASE_GRANTED = "lease_granted"
EV_LEASE_EXPIRED = "lease_expired"


def _fsync_policy(explicit: Optional[bool]) -> bool:
    if explicit is not None:
        return explicit
    raw = os.environ.get(FSYNC_ENV, "").strip().lower()
    if raw in ("", "0", "off", "no", "false"):
        return False
    if raw in ("1", "always", "yes", "true"):
        return True
    raise ValueError(
        f"{FSYNC_ENV} must be 'always' or 'off', got {raw!r}"
    )


class JobJournal:
    """Append-only writer half of the journal (the coordinator's side).

    Opening takes an exclusive non-blocking ``flock`` (a second
    coordinator on the same path raises :class:`RuntimeError`) and
    seals any torn tail a crashed predecessor left: if the file does
    not end in a newline, one is appended so the next event starts on
    its own line and only the torn fragment is lost.

    Args:
        path: journal file (parent directories are created).
        fsync: ``True`` fsyncs every append; ``None`` defers to
            ``REPRO_JOURNAL_FSYNC``.
    """

    def __init__(self, path, fsync: Optional[bool] = None) -> None:
        self.path = pathlib.Path(path)
        self.fsync = _fsync_policy(fsync)
        self.appends = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        try:
            fcntl.flock(self._handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as error:
            self._handle.close()
            self._handle = None
            if error.errno in (errno.EACCES, errno.EAGAIN):
                raise RuntimeError(
                    f"journal {self.path} is locked by another coordinator "
                    "(two `repro serve` processes must not share a journal)"
                ) from error
            raise
        self._seal_torn_tail()

    def _seal_torn_tail(self) -> None:
        size = self._handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        with open(self.path, "rb") as reader:
            reader.seek(size - 1)
            last = reader.read(1)
        if last != b"\n":
            self._handle.write(b"\n")
            self._handle.flush()

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append(self, event: str, **fields) -> dict:
        """Write one event line (flushed; fsynced under the policy).

        Raises:
            OSError: the write failed (disk full, file gone) -- the
                caller decides whether that is fatal.
        """
        if self._handle is None:
            raise OSError("journal is closed")
        record = {"v": JOURNAL_SCHEMA, "ts": time.time(), "ev": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.appends += 1
        return record

    def close(self) -> None:
        """Release the flock and close the handle (idempotent)."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            handle.flush()
        finally:
            handle.close()  # closing drops the flock


# ----------------------------------------------------------------------
# reader half: crash-tolerant scan + pure replay fold
def read_journal(path) -> Tuple[List[dict], Dict[str, int]]:
    """Scan a journal file into its parseable events.

    Returns ``(events, skipped)`` where ``skipped`` counts ``corrupt``
    lines (torn tail, garbage) and ``stale`` lines (other schema
    versions) -- both skipped, never fatal, exactly like a store
    segment.  A missing file is an empty journal.
    """
    events: List[dict] = []
    skipped = {"corrupt": 0, "stale": 0}
    try:
        data = pathlib.Path(path).read_bytes()
    except FileNotFoundError:
        return events, skipped
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            skipped["corrupt"] += 1
            continue
        if not isinstance(record, dict) or "ev" not in record:
            skipped["corrupt"] += 1
            continue
        if record.get("v") != JOURNAL_SCHEMA:
            skipped["stale"] += 1
            continue
        events.append(record)
    return events, skipped


class JournalReplay:
    """The journal folded into per-job state (see :func:`replay_journal`).

    Attributes:
        jobs: job id -> entry dict (``request``, ``specs``, ``settled``,
            ``state``, ``error``, ``accepted_ts``, ``finished_ts``),
            insertion-ordered by first acceptance.
        events: parseable events folded.
        by_event: event-type -> count.
        skipped: the ``read_journal`` skip counts (zeros when replaying
            an in-memory event list).
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, dict] = {}
        self.events = 0
        self.by_event: Dict[str, int] = {}
        self.skipped = {"corrupt": 0, "stale": 0}

    def completed(self) -> List[dict]:
        """Entries whose last lifecycle event was ``job_done``."""
        return [e for e in self.jobs.values() if e["state"] != "accepted"]

    def incomplete(self) -> List[dict]:
        """Entries accepted but never finished -- the re-queue set."""
        return [e for e in self.jobs.values() if e["state"] == "accepted"]


def replay_journal(events: List[dict]) -> JournalReplay:
    """Fold an event stream into final per-job state.

    A ``job_accepted`` for an id that already finished *re-opens* it
    (a resubmission of a completed job is a fresh execution under the
    same content-addressed id); settles for unknown or finished jobs
    are ignored, as are unknown event types (forward compatibility).
    """
    replay = JournalReplay()
    for event in events:
        replay.events += 1
        kind = event.get("ev", "?")
        replay.by_event[kind] = replay.by_event.get(kind, 0) + 1
        if kind == EV_JOB_ACCEPTED:
            replay.jobs.pop(event.get("job"), None)  # re-open: reset order
            replay.jobs[event.get("job")] = {
                "job": event.get("job"),
                "request": event.get("request") or {},
                "specs": event.get("specs") or [],
                "settled": {},
                "state": "accepted",
                "error": None,
                "accepted_ts": event.get("ts"),
                "finished_ts": None,
            }
        elif kind == EV_RUN_SETTLED:
            entry = replay.jobs.get(event.get("job"))
            if entry is not None and entry["state"] == "accepted":
                entry["settled"][event.get("key")] = (
                    event.get("source"), event.get("error")
                )
        elif kind == EV_JOB_DONE:
            entry = replay.jobs.get(event.get("job"))
            if entry is not None:
                entry["state"] = event.get("state") or "done"
                entry["error"] = event.get("error")
                entry["finished_ts"] = event.get("ts")
    return replay


def load_journal(path) -> JournalReplay:
    """:func:`read_journal` + :func:`replay_journal` in one call."""
    events, skipped = read_journal(path)
    replay = replay_journal(events)
    replay.skipped = skipped
    return replay


def restore_job(entry: dict) -> Job:
    """Rebuild a :class:`Job` from a replay entry.

    Every spec is verified to round-trip to its journaled run key (the
    same refusal a worker applies to a leased payload), and the rebuilt
    job must hash to the journaled id -- a journal that fails either
    check is corrupt and the entry is unrecoverable.

    Finished entries come back fully settled in their terminal state;
    unfinished entries come back ``queued`` with *no* settles applied,
    so the scheduler's normal cache/dispatch path decides warm-vs-rerun
    per key against the live store.

    Raises:
        ValueError: malformed request/spec payloads, a spec that does
            not hash to its journaled key, or a job-id mismatch.
    """
    try:
        request = SweepRequest.restore(entry["request"])
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"unrecoverable journal entry: {error}") from error
    specs = []
    for item in entry.get("specs") or []:
        spec = spec_from_dict(item.get("spec") or {})
        digest = RunKey.for_spec(spec).digest
        if digest != item.get("key"):
            raise ValueError(
                f"journaled spec hashes to {digest[:12]}, not its "
                f"recorded key {str(item.get('key'))[:12]}"
            )
        specs.append(spec)
    if not specs:
        raise ValueError("journal entry carries no specs")
    job = Job(request, specs)
    if job.id != entry.get("job"):
        raise ValueError(
            f"rebuilt job hashes to {job.id[:12]}, not the journaled "
            f"id {str(entry.get('job'))[:12]}"
        )
    if entry.get("accepted_ts") is not None:
        job.created = entry["accepted_ts"]
    if entry["state"] == "accepted":
        return job
    # finished: apply the journaled ledger and terminal state
    job.started = entry.get("accepted_ts") or job.created
    for key, (source, error) in entry["settled"].items():
        if key in job.runs:
            job.settle_run(key, source, error)
    job.state = entry["state"]
    job.error = entry.get("error")
    job.finished = entry.get("finished_ts") or job.started
    return job
