"""The on-disk segment behind :class:`~repro.engine.store.ResultStore`.

A store is one JSON-lines file of schema-versioned records, held by a
:class:`JsonlSegment`: an in-memory newest-record-wins index, batched
append handles and a lock-holding :meth:`~JsonlSegment.compact`.

One process writes a store in normal operation: a sweep, or a service,
whose one store writer is :meth:`JobScheduler.settle
<repro.service.scheduler.JobScheduler.settle>` persisting each settled
run off the event loop.  The file tolerates more: appends take a
*shared* ``flock`` -- only ``compact`` takes it exclusive -- so a
second appender never waits, and append-mode writes of whole records
do not interleave.  ``tests/test_store_faults.py``
pins the crash contract (at most the torn final record lost, stale
schemas invisible) under writer kills, truncation, corruption and
concurrent appenders.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import Dict, Iterator, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["JsonlSegment"]


def _flock(handle, exclusive: bool, blocking: bool = True) -> bool:
    """Advisory-lock an open segment handle; ``True`` when acquired.

    Writers (bare puts, batched blocks) take the lock shared;
    :meth:`JsonlSegment.compact` takes it exclusive, so a rewrite can
    never orphan a live writer's inode (the writer would keep appending
    to the replaced file and silently lose every subsequent record).
    On platforms without :mod:`fcntl` the lock is a no-op that reports
    success -- same guarantees as before.
    """
    if fcntl is None:
        return True
    flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
    if not blocking:
        flags |= fcntl.LOCK_NB
    try:
        fcntl.flock(handle.fileno(), flags)
        return True
    except OSError:
        return False


class JsonlSegment:
    """One schema-versioned JSON-lines file of store records.

    An append-only file of ``{"schema", "key", "spec", "result"}``
    records with

    * an in-memory newest-record-wins index, loaded lazily;
    * stale-schema records skipped on load (counted, dropped on
      :meth:`compact`);
    * corrupt/torn lines skipped, never fatal;
    * shared-``flock`` appends (bare or through a held batch handle)
      and an exclusive-``flock`` :meth:`compact` that re-reads under
      the lock so concurrent appends survive the rewrite.
    """

    def __init__(
        self, path: pathlib.Path, schema_version: int
    ) -> None:
        self.path = pathlib.Path(path)
        self.schema_version = schema_version
        self._index: Dict[str, dict] = {}
        self._stale_records = 0
        self._loaded = False
        self._batch_handle = None
        self._batch_pending = 0
        self._batch_flush_every = 1

    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated/corrupt line: skip, don't die
                if record.get("schema") != self.schema_version:
                    self._stale_records += 1
                    continue
                key = record.get("key")
                if key:
                    self._index[key] = record

    # ------------------------------------------------------------------
    def _open_locked_append(self):
        """Append handle holding the shared writer lock.

        If a concurrent :meth:`compact` replaced the file between our
        open and the lock acquisition, the handle points at the
        orphaned inode -- writes there would vanish.  Re-open until the
        locked handle and the path agree (bounded: compaction is rare
        and quick).
        """
        for _ in range(5):
            handle = self.path.open("a", encoding="utf-8")
            _flock(handle, exclusive=False)
            if fcntl is None:
                return handle
            try:
                if (os.fstat(handle.fileno()).st_ino
                        == self.path.stat().st_ino):
                    return handle
            except OSError:
                pass
            handle.close()
        return self.path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------
    def get_record(self, digest: str) -> Optional[dict]:
        self._ensure_loaded()
        return self._index.get(digest)

    def put_record(self, digest: str, record: dict) -> None:
        """Append one record (and update the index).

        Outside a :meth:`batched` block the append is open-write-close
        (durable on return); inside one it goes through the held handle
        (flushed per ``flush_every`` puts and at block exit).
        """
        self._ensure_loaded()
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._batch_handle is not None:
            self._batch_handle.write(line)
            self._batch_pending += 1
            if self._batch_pending >= self._batch_flush_every:
                self.flush()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._open_locked_append() as handle:
                handle.write(line)
        self._index[digest] = record

    def flush(self) -> None:
        if self._batch_handle is not None:
            self._batch_handle.flush()
            self._batch_pending = 0

    @contextlib.contextmanager
    def batched(self, flush_every: int = 16) -> Iterator["JsonlSegment"]:
        """Hold one append handle open across many puts (reentrant:
        nested blocks reuse the outer handle)."""
        if self._batch_handle is not None:
            yield self  # nested: the outer batch owns the handle
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._batch_flush_every = max(1, flush_every)
        self._batch_handle = self._open_locked_append()
        try:
            yield self
        finally:
            handle, self._batch_handle = self._batch_handle, None
            self._batch_pending = 0
            handle.close()

    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        self._ensure_loaded()
        return list(self._index)

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._index)

    @property
    def stale_records(self) -> int:
        self._ensure_loaded()
        return self._stale_records

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the file keeping only current-schema records (one per
        key); returns the number of live records.

        The rewrite holds the writer lock exclusively and re-reads the
        file under it, so records appended by another process after
        this segment loaded its index are preserved, and a process
        currently *holding* a writer lock (a sweep mid-append) makes
        compaction refuse rather than orphan its inode.

        Raises:
            RuntimeError: inside a :meth:`batched` block (the rewrite
                would orphan the held append handle and silently drop
                its subsequent writes), or while another process holds
                a writer lock on the file.
        """
        if self._batch_handle is not None:
            raise RuntimeError("compact() is not allowed inside batched()")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as guard:
            if not _flock(guard, exclusive=True, blocking=False):
                raise RuntimeError(
                    f"{self.path} is being written by another process; "
                    "retry when its sweep finishes"
                )
            # re-read under the lock: another process may have appended
            # records since this segment first loaded its index
            self._loaded = False
            self._index.clear()
            self._stale_records = 0
            self._ensure_loaded()
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for record in self._index.values():
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            tmp.replace(self.path)
        self._stale_records = 0
        return len(self._index)
