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
disabled.  Exports resolve lazily (:func:`repro.lazy_exports`), so
importing one of these modules loads neither of the others.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.telemetry.metrics": (
        "CONTENT_TYPE", "DEFAULT_BUCKETS", "MAX_LABEL_SETS", "MetricsRegistry",
        "REGISTRY", "render_exposition",
    ),
    "repro.telemetry.spans": (
        "disable_spans", "enable_spans", "export_chrome_trace",
        "merge_chrome_trace", "read_spans", "record_span", "span",
        "span_log_path", "spans_enabled",
    ),
    "repro.telemetry.tracectx": (
        "current_trace_id", "format_traceparent", "parse_traceparent",
        "span_id_for_key", "trace_id_for_job", "trace_scope",
    ),
})
