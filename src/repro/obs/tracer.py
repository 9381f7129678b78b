"""The one observability stream of the verify → test → learn loop.

A :class:`Tracer` publishes three kinds of records, each through one
entry point, and hands every record to its *sinks*:

* **spans** — ``with tracer.span("checker.check", kind="property"): ...``
  times a block on a track (``"main"`` unless overridden);
  ``tracer.record(name, track=..., start=t0, duration=dt)`` publishes an
  interval timed elsewhere (a worker reporting on its own track) and
  ``@tracer.wrap("learn.merge")`` decorates a function;
* **events** — ``tracer.event("iteration.started", iteration=3)``
  numbers the event with the stream's one ``seq`` and hands the same
  :class:`~repro.obs.progress.ProgressEvent` to every sink;
* **anomalies** — ``tracer.anomaly("test_timeout", test=...)`` publishes
  an ``anomaly.recorded`` event and asks every blackbox sink to dump.

A sink is any object with one or more of these hooks:

==========================  ==============================================
``on_span(span)``           a finished :class:`Span` (trace files)
``emit(event)``             a sequenced event (progress sinks, the ring)
``dump(reason, **context)`` an anomaly happened (the flight recorder)
``bind(**context)``         loop context for later dumps (settings, records)
``on_metrics(registry)``    the final metrics snapshot, when the stream closes
``close()``                 the stream closed (flush files, end status lines)
==========================  ==============================================

Every stream keeps a :class:`~repro.obs.metrics.MetricsRegistry` as
``tracer.metrics``; it is itself a span sink, deriving the
``test_execute_seconds`` / ``monitor_replay_seconds`` histograms from
span durations.  Without sinks a tracer keeps its spans in memory
(:attr:`Tracer.spans`) for the exporters; with sinks it keeps nothing.

Spans nest by interval containment per track, which is exactly how
Chrome trace viewers (and the self-time fold of
``tools/trace_report.py``) reconstruct the call tree.

The default is :data:`NULL_TRACER`, whose ``span`` returns one shared
no-op context manager and whose other entry points do nothing — the
instrumented loop pays only the call itself (the benchmark guards in
``benchmarks/bench_overhead_guards.py`` pin this below 1% of loop
time), and ``enabled`` is ``False`` so call sites skip building
payloads.  :func:`resolve_tracer` turns the ``REPRO_TRACE`` /
``REPRO_TRACE_FORMAT`` / ``REPRO_BLACKBOX`` variables into sinks on one
process-wide stream; an explicit tracer is always used exactly as given.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

from .metrics import MetricsRegistry
from .progress import ProgressEvent

__all__ = [
    "TRACE_ENV",
    "TRACE_FORMAT_ENV",
    "BLACKBOX_ENV",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "env_sinks",
    "resolve_tracer",
]

#: Environment variable naming a trace output file.  When set (and no
#: explicit ``tracer=`` is given), every synthesis run in the process
#: traces into it — this is how CI runs the whole suite traced.
TRACE_ENV = "REPRO_TRACE"

#: Companion format knob for :data:`TRACE_ENV`: ``jsonl`` (default,
#: streamed) or ``chrome`` (one trace-event JSON written at exit).
TRACE_FORMAT_ENV = "REPRO_TRACE_FORMAT"

#: Environment variable naming the blackbox dump directory: arms a
#: flight recorder on the process-wide stream (the chaos CI legs set it).
BLACKBOX_ENV = "REPRO_BLACKBOX"

#: The hooks that make an object a sink (see the module docstring).
_HOOKS = ("on_span", "emit", "dump", "bind", "on_metrics", "close")


@dataclass(frozen=True, slots=True)
class Span:
    """One finished interval: what happened, where, when, for how long.

    ``start`` is in seconds relative to the tracer's epoch (its
    construction time); ``duration`` is in seconds.  ``args`` carry
    small deterministic annotations (iteration index, solve kind,
    domain size) — never wall-clock-derived values.
    """

    name: str
    track: str
    start: float
    duration: float
    args: dict = field(default_factory=dict)


class _SpanHandle:
    """The live context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_track", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, track: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args

    def set(self, **args) -> None:
        """Attach annotations discovered while the span is open."""
        self._args.update(args)

    def __enter__(self) -> "_SpanHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self._tracer._emit(self._name, self._track, self._start, end - self._start, self._args)
        return False


def _hooks(sinks, name: str) -> tuple:
    return tuple(getattr(sink, name) for sink in sinks if hasattr(sink, name))


class Tracer:
    """One observability stream: spans, events and anomalies, fanned out to sinks.

    Parameters
    ----------
    *sinks:
        The stream's outputs (see the module docstring for the hooks).
        ``None`` and sinks whose ``enabled`` is ``False`` are dropped,
        and a sink given twice is kept once, so it receives each record
        once.  Span and event sinks are called without the tracer's
        lock, so a sink shared across threads synchronizes internally
        (:class:`~repro.obs.export.TraceFile` does).
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` counters publish
        into; a fresh one by default.
    """

    enabled = True

    def __init__(self, *sinks, metrics: MetricsRegistry | None = None):
        unique: list = []
        for sink in sinks:
            if sink is None or getattr(sink, "enabled", True) is False:
                continue
            if not any(hasattr(sink, hook) for hook in _HOOKS):
                raise TypeError(
                    f"a sink must provide one of {', '.join(_HOOKS)}; "
                    f"got {type(sink).__name__}"
                )
            if all(sink is not kept for kept in unique):
                unique.append(sink)
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._seq = itertools.count()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks: tuple = tuple(unique)
        self._keep = not unique
        self._span_sinks = (self.metrics.on_span, *_hooks(unique, "on_span"))
        self._emitters = _hooks(unique, "emit")
        self._dumpers = _hooks(unique, "dump")

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every finished span, in completion order (empty with sinks)."""
        with self._lock:
            return tuple(self._spans)

    # ---------------------------------------------------------------- spans

    def span(self, name: str, *, track: str = "main", **args) -> _SpanHandle:
        """A context manager timing a block as one span on ``track``."""
        return _SpanHandle(self, name, track, args)

    def record(
        self, name: str, *, track: str = "main", start: float, duration: float, **args
    ) -> None:
        """Publish an externally timed interval.

        ``start`` is an absolute :func:`time.perf_counter` value (the
        worker's own clock reading); it is rebased onto the tracer's
        epoch here.  This is the API worker threads use — they must not
        share the coordinator's span stack or lock while running.
        """
        self._emit(name, track, start, duration, args)

    def wrap(self, name: str, *, track: str = "main"):
        """Decorator form of :meth:`span`."""

        def decorate(function):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                with self.span(name, track=track):
                    return function(*args, **kwargs)

            return traced

        return decorate

    def count(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``tracer.metrics.inc(name, amount)``."""
        self.metrics.inc(name, amount)

    def _emit(self, name: str, track: str, start: float, duration: float, args: dict) -> None:
        span = Span(name, track, start - self._epoch, duration, args)
        for sink in self._span_sinks:
            sink(span)
        if self._keep:
            with self._lock:
                self._spans.append(span)

    # ------------------------------------------------------ events, anomalies

    def event(self, name: str, /, **payload) -> None:
        """Publish one progress event, numbered with the stream's ``seq``."""
        self._publish(name, payload)

    def anomaly(self, reason: str, /, **context) -> None:
        """Publish ``anomaly.recorded`` and have every blackbox sink dump."""
        payload = dict(context)
        payload["reason"] = reason
        self._publish("anomaly.recorded", payload)
        for dump in self._dumpers:
            dump(reason, **context)

    def _publish(self, name: str, payload: dict) -> None:
        event = ProgressEvent(name, next(self._seq), payload)
        for emit in self._emitters:
            emit(event)

    # ------------------------------------------------------------- lifecycle

    def bind(self, **context) -> None:
        """Hand loop context (``settings=``, ``records=``) to every sink."""
        for bind in _hooks(self.sinks, "bind"):
            bind(**context)

    def close(self) -> None:
        """End the stream: hand sinks the metrics snapshot, then close them."""
        for publish in _hooks(self.sinks, "on_metrics"):
            publish(self.metrics)
        for close in _hooks(self.sinks, "close"):
            close()


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) with a single shared
    null span keeps the per-call cost to one attribute lookup and one
    call — small enough to leave tracing calls in every hot path (the
    benchmark guard holds it below 1% of loop time).  ``enabled`` is
    ``False`` so call sites skip building payloads and publishing
    metrics entirely.
    """

    __slots__ = ()

    enabled = False
    spans: tuple[Span, ...] = ()
    sinks: tuple = ()

    def span(self, name: str, *, track: str = "main", **args) -> "_NullSpan":
        return _NULL_SPAN

    def record(
        self, name: str, *, track: str = "main", start: float = 0.0, duration: float = 0.0, **args
    ) -> None:
        pass

    def wrap(self, name: str, *, track: str = "main"):
        return lambda function: function

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def event(self, name: str, /, **payload) -> None:
        pass

    def anomaly(self, reason: str, /, **context) -> None:
        pass

    def bind(self, **context) -> None:
        pass

    def close(self) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def set(self, **args) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The process-wide no-op tracer every entry point defaults to.
NULL_TRACER = NullTracer()


# ------------------------------------------------------------- env activation


def env_sinks(*, trace: bool = True, blackbox: bool = True) -> list:
    """The sinks the ``REPRO_TRACE``/``REPRO_BLACKBOX`` variables ask for.

    ``trace=False`` / ``blackbox=False`` skip a variable (the CLI does
    for the kinds its own flags already configure).  Every path is
    checked here, before any loop starts: a bad one raises
    :class:`~repro.errors.SynthesisError` naming its variable.
    """
    from ..errors import SynthesisError

    path = os.environ.get(TRACE_ENV, "").strip() if trace else ""
    fmt = os.environ.get(TRACE_FORMAT_ENV, "").strip() or "jsonl"
    directory = os.environ.get(BLACKBOX_ENV, "").strip() if blackbox else ""
    if path and fmt not in ("jsonl", "chrome"):
        raise SynthesisError(f"{TRACE_FORMAT_ENV} must be 'jsonl' or 'chrome', got {fmt!r}")
    if path and os.path.isdir(path):
        raise SynthesisError(f"{TRACE_ENV} must name a file, got the directory {path!r}")
    if directory and os.path.exists(directory) and not os.path.isdir(directory):
        raise SynthesisError(f"{BLACKBOX_ENV} must name a directory, got the file {directory!r}")
    sinks: list = []
    if path:
        from .export import TraceFile

        try:
            sinks.append(TraceFile(path, format=fmt, append=True))
        except OSError as error:
            raise SynthesisError(f"{TRACE_ENV}={path!r} cannot be written: {error}") from None
    if directory:
        from .flight import FlightRecorder

        sinks.append(FlightRecorder(directory))
    return sinks


#: Process-wide env streams, one per ``(trace, format, blackbox)``
#: setting, so tests that rewrite the variables get fresh sinks.
_ENV_STREAMS: dict[tuple[str, str, str], Tracer] = {}


def resolve_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """An explicit tracer as given, else the env stream, else the null one.

    Call sites thread ``None`` through and resolution happens in one
    place.  The env stream is process-wide, built once per setting of
    the three variables, and closed at interpreter exit.
    """
    if tracer is not None:
        return tracer
    key = (
        os.environ.get(TRACE_ENV, "").strip(),
        os.environ.get(TRACE_FORMAT_ENV, "").strip(),
        os.environ.get(BLACKBOX_ENV, "").strip(),
    )
    if not key[0] and not key[2]:
        return NULL_TRACER
    stream = _ENV_STREAMS.get(key)
    if stream is None:
        stream = _ENV_STREAMS[key] = Tracer(*env_sinks())
        atexit.register(stream.close)
    return stream
