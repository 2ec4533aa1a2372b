"""Unified telemetry layer: metrics, spans, trace context.

Two observability primitives with disjoint jobs (see
``docs/observability.md``):

* :mod:`repro.telemetry.metrics` -- process-wide **metrics registry**
  (counters / gauges / histograms, labeled families, Prometheus text
  exposition).  Answers "how is the service doing right now".
* :mod:`repro.telemetry.spans` -- **phase-span tracing** to a JSONL
  log with Chrome ``trace_event`` export.  Answers "where did this
  sweep's wall-time go".

:mod:`repro.telemetry.tracectx` carries a job's trace id across
processes so their span logs merge onto one timeline.

Everything is stdlib-only and off the simulator's cycle loop: metrics
live in the service/engine layers and spans cost one check when
disabled.
"""

from repro.telemetry.metrics import (
    CONTENT_TYPE,
    DEFAULT_BUCKETS,
    MAX_LABEL_SETS,
    MetricsRegistry,
    REGISTRY,
    render_exposition,
)
from repro.telemetry.spans import (
    disable_spans,
    enable_spans,
    export_chrome_trace,
    merge_chrome_trace,
    read_spans,
    record_span,
    span,
    span_log_path,
    spans_enabled,
)
from repro.telemetry.tracectx import (
    current_trace_id,
    format_traceparent,
    parse_traceparent,
    span_id_for_key,
    trace_id_for_job,
    trace_scope,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "MAX_LABEL_SETS",
    "MetricsRegistry",
    "REGISTRY",
    "current_trace_id",
    "disable_spans",
    "enable_spans",
    "export_chrome_trace",
    "format_traceparent",
    "merge_chrome_trace",
    "parse_traceparent",
    "read_spans",
    "record_span",
    "render_exposition",
    "span",
    "span_id_for_key",
    "span_log_path",
    "spans_enabled",
    "trace_id_for_job",
    "trace_scope",
]
