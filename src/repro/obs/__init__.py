"""Observability for the verify → test → learn loop: one stream, many sinks.

:class:`Tracer` (:mod:`repro.obs.tracer`) is the one stream: spans,
sequenced progress events and anomalies are published through it, and
every other piece is a sink on it:

* :mod:`repro.obs.metrics` — deterministic counters, gauges, and
  fixed-bucket histograms (``tracer.metrics``, which derives the test
  and replay duration histograms from spans), plus the canonical
  ``product_*`` / ``checker_*`` counter plumbing shared with the reports;
* :mod:`repro.obs.export` — the :class:`TraceFile` sink (JSONL streamed
  or Chrome trace-event JSON), the self-time fold (and fold diff) behind
  ``tools/trace_report.py``, and the plain-text per-iteration summary;
* :mod:`repro.obs.progress` — the typed :class:`ProgressEvent` and the
  callback/JSONL/TTY progress sinks (the service streaming hook);
* :mod:`repro.obs.flight` — the flight recorder: a bounded event ring
  that dumps a self-contained ``blackbox.json`` on anomalies.

The default is the zero-overhead :data:`NULL_TRACER`;
:func:`resolve_tracer` turns ``REPRO_TRACE`` / ``REPRO_TRACE_FORMAT`` /
``REPRO_BLACKBOX`` into sinks on one process-wide stream.  Span,
metric, and progress-event names are a stable, tested contract — see
``docs/observability.md`` for the reference.
"""

from .export import (
    chrome_trace,
    encode_event,
    fold_diff,
    fold_self_time,
    load_trace,
    metric_events,
    render_fold_diff,
    render_fold_table,
    render_trace_summary,
    span_event,
    span_line,
    TraceFile,
    write_trace,
)
from .flight import FlightRecorder
from .metrics import (
    DEFAULT_TIME_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    publish_record,
    record_counters,
)
from .progress import (
    PROGRESS_EVENT_NAMES,
    CallbackProgressSink,
    JsonlProgressSink,
    ProgressEvent,
    TtyProgressSink,
)
from .tracer import (
    BLACKBOX_ENV,
    NULL_TRACER,
    TRACE_ENV,
    TRACE_FORMAT_ENV,
    NullTracer,
    Span,
    Tracer,
    env_sinks,
    resolve_tracer,
)

__all__ = [
    "BLACKBOX_ENV",
    "CallbackProgressSink",
    "Counter",
    "DEFAULT_TIME_BOUNDS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlProgressSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PROGRESS_EVENT_NAMES",
    "ProgressEvent",
    "Span",
    "TRACE_ENV",
    "TRACE_FORMAT_ENV",
    "TraceFile",
    "Tracer",
    "TtyProgressSink",
    "chrome_trace",
    "fold_diff",
    "fold_self_time",
    "load_trace",
    "metric_events",
    "encode_event",
    "env_sinks",
    "publish_record",
    "record_counters",
    "render_fold_diff",
    "render_fold_table",
    "render_trace_summary",
    "resolve_tracer",
    "span_event",
    "span_line",
    "write_trace",
]
