"""Disk-backed result store: the L2 of the memoisation hierarchy.

Results are schema-versioned JSON records (one per line):

.. code-block:: json

    {"schema": 1, "key": "<sha256>", "spec": {...}, "result": {...}}

* **schema versioning** -- every record carries
  :data:`~repro.engine.serialize.SCHEMA_VERSION`; records with any other
  tag are skipped on load (and dropped on :meth:`ResultStore.compact`),
  so a simulator change that bumps the version transparently invalidates
  every stale cache entry.
* **append-only writes** -- a put appends one line and updates the
  in-memory index; the newest record for a key wins on load, so
  re-putting a key is harmless.
* **batched appends** -- a bare :meth:`ResultStore.put` opens, appends
  and closes the file (maximally crash-tolerant: the line is durable
  the moment put returns).  Inside a :meth:`ResultStore.batched` block
  -- which the experiment engine wraps around every sweep -- puts write
  through held handles and the store flushes every ``flush_every``
  records (the engine passes its pool chunk size) and at block exit, so
  a sweep of N runs costs one open/close instead of N.
  Crash tolerance inside a batch weakens only boundedly: a killed
  process loses at most the puts since the last flush (plus whatever
  the OS had not yet made durable -- the store never fsyncs, batched or
  not), and a torn final line is skipped on the next load rather than
  poisoning the file.
* **corruption tolerance** -- unparsable lines (e.g. a truncated final
  line from a killed process) are skipped, never fatal.

The file itself -- index, locking, compaction -- is a
:class:`~repro.engine.store_backends.JsonlSegment`.  A directory is
refused: it is a store of the removed sharded layout, whose segment
files concatenate losslessly into one store file.

The default location is ``~/.cache/repro/results.jsonl``, overridable
via the ``REPRO_STORE`` environment variable or an explicit path
(``repro sweep --store``).  Setting ``REPRO_STORE`` to an empty string
disables the default store.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import shlex
from typing import Dict, Iterator, Optional, Union

from repro.engine.serialize import (
    SCHEMA_VERSION,
    result_from_dict,
    result_to_dict,
)
from repro.engine.spec import RunKey, RunSpec, spec_to_dict
from repro.engine.store_backends import JsonlSegment
from repro.gpu.stats import SimulationResult
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.spans import span

__all__ = ["DEFAULT_STORE_DIR", "ResultStore", "default_store_path"]

#: default on-disk location (under the user cache directory)
DEFAULT_STORE_DIR = "~/.cache/repro"

# process-wide store accounting (all ResultStore instances); exposed as
# repro_store_* at GET /metrics
_GETS_HIT = REGISTRY.counter(
    "repro_store_gets_hit", "Store lookups served from disk")
_GETS_MISS = REGISTRY.counter(
    "repro_store_gets_miss", "Store lookups that found nothing")
_PUTS = REGISTRY.counter(
    "repro_store_puts", "Result records appended")
_COMPACTIONS = REGISTRY.counter(
    "repro_store_compactions", "Store files rewritten by compact()")


def default_store_path() -> Optional[pathlib.Path]:
    """Resolve the default store path (honouring ``REPRO_STORE``).

    Returns ``None`` when ``REPRO_STORE`` is set to an empty string,
    which disables persistent caching.
    """
    env = os.environ.get("REPRO_STORE")
    if env is not None:
        if not env.strip():
            return None
        return pathlib.Path(env).expanduser()
    return pathlib.Path(DEFAULT_STORE_DIR).expanduser() / "results.jsonl"


def _digest(key: Union[str, RunKey]) -> str:
    """The store digest for *key*: a :class:`RunKey` or its hex digest.

    Raises:
        TypeError: anything else -- e.g. a :class:`RunSpec`, which would
            otherwise silently miss (pass ``spec.key()`` instead).
    """
    if isinstance(key, RunKey):
        return key.digest
    if isinstance(key, str):
        return key
    raise TypeError(
        f"store keys are RunKey or str digests, not {type(key).__name__}"
    )


class ResultStore:
    """Persistent (run key -> SimulationResult) mapping on disk.

    Args:
        path: the store's JSON-lines file.  Parents are created lazily
            on first write.
        schema_version: records carrying any other tag are invisible
            (tests override this to simulate stale caches).

    Raises:
        ValueError: *path* is a directory -- a store of the removed
            sharded layout; the message gives the one-line import.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.path = pathlib.Path(path).expanduser()
        self.schema_version = schema_version
        if self.path.is_dir():
            # each run-key digest lived in exactly one shard, in append
            # order, so concatenating the shards loses nothing
            raise ValueError(
                f"{self.path} is a directory: the sharded store layout "
                "was removed and a store is one JSON-lines file; import "
                f"it with `cat {shlex.quote(str(self.path))}/shard-*.jsonl"
                " > results.jsonl`"
            )
        self._segment = JsonlSegment(self.path, schema_version)

    @property
    def _batch_handle(self):
        """The held append handle while a :meth:`batched` block is
        open, else ``None``."""
        return self._segment._batch_handle

    # ------------------------------------------------------------------
    def get(self, key: Union[str, RunKey]) -> Optional[SimulationResult]:
        """Fetch a stored result, or ``None`` when absent/stale."""
        record = self._segment.get_record(_digest(key))
        if record is None:
            _GETS_MISS.inc()
            return None
        _GETS_HIT.inc()
        return result_from_dict(record["result"])

    def put(self, spec: RunSpec, result: SimulationResult) -> RunKey:
        """Persist one result (append + index update); returns its key.

        Outside a :meth:`batched` block the append is open-write-close
        (durable on return); inside one it goes through the held handle
        (flushed per ``flush_every`` puts and at block exit).
        """
        key = spec.key()
        record = {
            "schema": self.schema_version,
            "key": key.digest,
            "spec": spec_to_dict(spec),
            "result": result_to_dict(result),
        }
        with span("store_put", key=key.digest[:12]):
            self._segment.put_record(key.digest, record)
        _PUTS.inc()
        return key

    def put_record(self, key: Union[str, RunKey], record: dict) -> None:
        """Persist one *raw* record dict unchanged (the service's
        settle path for worker-computed results -- local runs use
        :meth:`put`)."""
        self._segment.put_record(_digest(key), record)
        _PUTS.inc()

    def flush(self) -> None:
        """Push batched writes to the OS (no-op outside a batch)."""
        self._segment.flush()

    @contextlib.contextmanager
    def batched(self, flush_every: int = 16) -> Iterator["ResultStore"]:
        """Hold one append handle open across many :meth:`put` calls.

        Reentrant: nested blocks reuse the outer handle (the outer
        block owns closing it).  See the module docstring for the
        crash-tolerance semantics.
        """
        with self._segment.batched(flush_every):
            yield self

    def record(self, key: Union[str, RunKey]) -> Optional[dict]:
        """The raw stored record for *key* (``{"schema", "key", "spec",
        "result"}``), or ``None`` when absent/stale.

        This is what the service's ``/v1/results`` endpoint serves: the
        result payload together with the spec it was computed from
        (provenance), without deserialising into simulation objects.
        """
        return self._segment.get_record(_digest(key))

    def keys(self) -> Iterator[str]:
        """Iterate over the digests of every live record."""
        return iter(self._segment.keys())

    def info(self) -> Dict[str, object]:
        """Operator-facing snapshot: path, live/stale record counts,
        schema version and the on-disk size in bytes (0 when nothing
        exists yet)."""
        return {
            "path": str(self.path),
            "records": len(self._segment),
            "stale_records": self._segment.stale_records,
            "schema_version": self.schema_version,
            "size_bytes": self._segment.size_bytes(),
        }

    # ------------------------------------------------------------------
    def __contains__(self, key: Union[str, RunKey]) -> bool:
        return self._segment.get_record(_digest(key)) is not None

    def __len__(self) -> int:
        return len(self._segment)

    @property
    def stale_records(self) -> int:
        """Records skipped on load because their schema tag mismatched."""
        return self._segment.stale_records

    def compact(self) -> int:
        """Rewrite the store keeping only current-schema records (one
        per key); returns the number of live records.

        The file is rewritten under an exclusive writer lock and
        re-read beneath it, so records appended by another process
        after this store loaded its index are preserved, and a process
        currently *holding* a writer lock (a sweep mid-append) makes
        compaction refuse rather than orphan its inode.

        Raises:
            RuntimeError: inside a :meth:`batched` block (the rewrite
                would orphan the held append handle and silently drop
                its subsequent writes), or while another process holds
                a writer lock on the file.
        """
        live = self._segment.compact()
        _COMPACTIONS.inc()
        return live

