"""Cross-process trace context: W3C-traceparent-style propagation.

The span log (:mod:`repro.telemetry.spans`) is per-process; a remote
sweep runs across a coordinator plus N ``repro worker`` processes.
This module carries one **trace id per job** across that boundary so
every span a fleet emits on a job's behalf can be joined back to it:

* the trace id is **derived from the job id** (a SHA-256 slice), not
  random -- retries, re-leases and attached submissions of the same
  design-space slice all land on the same trace;
* the coordinator stamps a ``trace`` field (a W3C ``traceparent``
  string, ``00-<trace32>-<span16>-01``) on every run entry of a lease
  grant; the worker adopts it via :func:`trace_scope` while executing
  that run, and :func:`repro.telemetry.spans.record_span` stamps the
  current trace id onto every span line written inside the scope;
* ``repro spans merge <log>... --chrome`` then joins coordinator and
  worker logs into one Perfetto timeline where the shared trace id is
  the correlation key.

Only the ``traceparent`` *shape* is borrowed (version ``00``, 32-hex
trace id, 16-hex parent span id, sampled flag ``01``); there is no
HTTP-header negotiation -- the context rides inside the lease/settle
JSON bodies, which tolerate unknown fields in both directions, so
mixed-version fleets interoperate.
"""

from __future__ import annotations

import hashlib
import re
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

__all__ = [
    "current_trace_id",
    "format_traceparent",
    "parse_traceparent",
    "span_id_for_key",
    "trace_id_for_job",
    "trace_scope",
]

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)

_local = threading.local()


def trace_id_for_job(job_id: str) -> str:
    """The 32-hex trace id for a job: a SHA-256 slice of the job id.

    Deterministic on purpose -- the job id is already content-addressed
    (sorted run-key digests), so every submission, attach or journal
    replay of the same design-space slice shares one trace.
    """
    digest = hashlib.sha256(("trace:" + job_id).encode("ascii")).hexdigest()
    return digest[:32]


def span_id_for_key(key: str) -> str:
    """The 16-hex parent span id for one run: the run-key digest prefix."""
    span_id = str(key)[:16].lower()
    if len(span_id) == 16 and all(c in "0123456789abcdef" for c in span_id):
        return span_id
    digest = hashlib.sha256(str(key).encode("utf-8", "replace")).hexdigest()
    return digest[:16]


def format_traceparent(trace_id: str, span_id: str) -> str:
    """``00-<trace32>-<span16>-01`` (version 00, sampled)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a traceparent string, or ``None``.

    Strict on shape, lenient on presence: a missing or garbled field
    just means the worker runs untraced.
    """
    if not isinstance(header, str):
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    return match.group(1), match.group(2)


def current_trace_id() -> Optional[str]:
    """The trace id adopted by the current thread, if any."""
    return getattr(_local, "trace_id", None)


@contextmanager
def trace_scope(trace_id: Optional[str]) -> Iterator[None]:
    """Adopt *trace_id* for spans recorded by this thread.

    Scopes nest (the previous id is restored on exit) and ``None`` is a
    no-op scope, so callers can pass a possibly-absent parsed context
    straight through without branching.
    """
    previous = getattr(_local, "trace_id", None)
    _local.trace_id = trace_id if trace_id else previous
    try:
        yield
    finally:
        _local.trace_id = previous
