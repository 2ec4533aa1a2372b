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
  a sweep of N runs costs one open/close per touched file instead of N.
  Crash tolerance inside a batch weakens only boundedly: a killed
  process loses at most the puts since the last flush (plus whatever
  the OS had not yet made durable -- the store never fsyncs, batched or
  not), and a torn final line is skipped on the next load rather than
  poisoning the file.
* **corruption tolerance** -- unparsable lines (e.g. a truncated final
  line from a killed process) are skipped, never fatal.

The on-disk **layout** is pluggable (see
:mod:`repro.engine.store_backends`): the default ``"jsonl"`` backend is
the original single file, and the ``"sharded"`` backend spreads records
over N per-shard segment files so fleet-scale concurrent writers do not
contend on one flock.  The layout is selected per store by
``--store-backend`` / ``REPRO_STORE_BACKEND`` for *new* stores; an
existing store's on-disk layout always wins, and
:func:`migrate_store` converts between the two losslessly.

The default location is ``~/.cache/repro/results.jsonl``, overridable
via the ``REPRO_STORE`` environment variable or an explicit path
(``repro sweep --store``).  Setting ``REPRO_STORE`` to an empty string
disables the default store.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Dict, Iterator, List, Optional, Union

from repro.engine.serialize import (
    SCHEMA_VERSION,
    result_from_dict,
    result_to_dict,
)
from repro.engine.spec import RunKey, RunSpec, spec_to_dict
from repro.engine.store_backends import (
    BACKEND_ENV,
    STORE_BACKENDS,
    ShardedBackend,
    SingleFileBackend,
    _flock,
    default_store_backend,
    detect_backend,
)
from repro.gpu.stats import SimulationResult
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.spans import span

__all__ = [
    "BACKEND_ENV", "DEFAULT_STORE_DIR", "ResultStore", "STORE_BACKENDS",
    "default_store_path", "migrate_store",
]

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

    The mapping semantics (content-hashed keys, newest record wins,
    schema invalidation, batched appends, corruption tolerance) are
    identical across backends; only the on-disk layout differs.

    Args:
        path: store location -- a JSON-lines file for the ``"jsonl"``
            backend, a directory for ``"sharded"``.  Parents are
            created lazily on first write.
        schema_version: records carrying any other tag are invisible
            (tests override this to simulate stale caches).
        backend: on-disk layout, one of :data:`STORE_BACKENDS`.  When
            omitted, an existing store's detected layout wins, then
            ``REPRO_STORE_BACKEND``, then ``"jsonl"``.
        shards: segment count for a *newly created* sharded store
            (existing stores keep their recorded count).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        schema_version: int = SCHEMA_VERSION,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> None:
        self.path = pathlib.Path(path).expanduser()
        self.schema_version = schema_version
        name = backend or detect_backend(self.path) or default_store_backend()
        if name == "sharded":
            self._backend = ShardedBackend(
                self.path, schema_version, shards=shards)
        elif name == "jsonl":
            self._backend = SingleFileBackend(self.path, schema_version)
        else:
            raise ValueError(
                f"unknown store backend {name!r}; "
                f"expected one of {list(STORE_BACKENDS)}"
            )

    @property
    def backend_name(self) -> str:
        """The active on-disk layout (``"jsonl"`` or ``"sharded"``)."""
        return self._backend.name

    @property
    def _batch_handle(self):
        """Truthy while a :meth:`batched` block is open (kept for
        callers that probe batch state; the handle itself is owned by
        the backend)."""
        return self._backend.batch_active

    # ------------------------------------------------------------------
    def get(self, key: Union[str, RunKey]) -> Optional[SimulationResult]:
        """Fetch a stored result, or ``None`` when absent/stale."""
        record = self._backend.get_record(_digest(key))
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
            self._backend.put_record(key.digest, record)
        _PUTS.inc()
        return key

    def put_record(self, key: Union[str, RunKey], record: dict) -> None:
        """Persist one *raw* record dict unchanged (migration path --
        normal writers use :meth:`put`)."""
        self._backend.put_record(_digest(key), record)
        _PUTS.inc()

    def flush(self) -> None:
        """Push batched writes to the OS (no-op outside a batch)."""
        self._backend.flush()

    @contextlib.contextmanager
    def batched(self, flush_every: int = 16) -> Iterator["ResultStore"]:
        """Hold append handles open across many :meth:`put` calls.

        Reentrant: nested blocks reuse the outer handles (the outer
        block owns closing them).  See the module docstring for the
        crash-tolerance semantics.
        """
        with self._backend.batched(flush_every):
            yield self

    def record(self, key: Union[str, RunKey]) -> Optional[dict]:
        """The raw stored record for *key* (``{"schema", "key", "spec",
        "result"}``), or ``None`` when absent/stale.

        This is what the service's ``/v1/results`` endpoint serves: the
        result payload together with the spec it was computed from
        (provenance), without deserialising into simulation objects.
        """
        return self._backend.get_record(_digest(key))

    def keys(self) -> Iterator[str]:
        """Iterate over the digests of every live record."""
        return iter(self._backend.keys())

    def files(self) -> List[pathlib.Path]:
        """Every on-disk file holding records (one for ``jsonl``, the
        existing segments for ``sharded``)."""
        return self._backend.files()

    def info(self) -> Dict[str, object]:
        """Operator-facing snapshot: path, backend, live/stale record
        counts and the on-disk size in bytes (0 when nothing exists
        yet).  Sharded stores add ``shards`` and a per-shard
        ``shard_info`` breakdown."""
        data = self._backend.info()
        data["path"] = str(self.path)
        data["schema_version"] = self.schema_version
        return data

    # ------------------------------------------------------------------
    def __contains__(self, key: Union[str, RunKey]) -> bool:
        return self._backend.get_record(_digest(key)) is not None

    def __len__(self) -> int:
        return len(self._backend)

    @property
    def stale_records(self) -> int:
        """Records skipped on load because their schema tag mismatched."""
        return self._backend.stale_records

    def compact(self) -> int:
        """Rewrite the store keeping only current-schema records (one
        per key); returns the number of live records.

        Each file is rewritten under an exclusive writer lock and
        re-read beneath it, so records appended by another process
        after this store loaded its index are preserved, and a process
        currently *holding* a writer lock (a sweep mid-append) makes
        compaction refuse rather than orphan its inode.  On the sharded
        backend the rewrite is per shard: a refused shard leaves every
        other shard compacted.

        Raises:
            RuntimeError: inside a :meth:`batched` block (the rewrite
                would orphan the held append handles and silently drop
                their subsequent writes), or while another process
                holds a writer lock on a file being rewritten.
        """
        live = self._backend.compact()
        _COMPACTIONS.inc()
        return live


def migrate_store(source: ResultStore, dest: ResultStore) -> int:
    """Copy every live record from *source* into *dest* (one-shot
    ``repro store migrate``); returns the number of records copied.

    Records are copied raw (bytes-for-bytes payloads, no re-keying), so
    the migration is lossless for everything visible: stale-schema and
    corrupt lines are dropped exactly as a :meth:`ResultStore.compact`
    would drop them.

    Raises:
        ValueError: *dest* already holds records (a partial overwrite
            could silently shadow newer results; point the migration at
            a fresh path instead).
    """
    if len(dest) > 0:
        raise ValueError(
            f"destination store {dest.path} already holds {len(dest)} "
            "record(s); migrate into a fresh path"
        )
    copied = 0
    with dest.batched(flush_every=64):
        for digest in source.keys():
            record = source.record(digest)
            if record is None:  # pragma: no cover - raced compaction
                continue
            dest.put_record(digest, record)
            copied += 1
    return copied
