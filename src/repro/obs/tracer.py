"""Hierarchical span tracing with a zero-overhead null default.

A :class:`Tracer` collects *spans* — named, timed intervals on named
*tracks* — from the verify → test → learn loop.  The API is designed so
instrumentation can stay in the hot paths permanently:

* ``with tracer.span("checker.check", kind="property"): ...`` times a
  block on the coordinator track (``"main"`` unless overridden);
* ``tracer.record(name, track=..., start=t0, duration=dt)`` publishes a
  measurement taken elsewhere — a worker times itself with
  :func:`time.perf_counter` and reports on its own track;
* ``@tracer.wrap("learn.merge")`` decorates a function.

Hierarchy is positional: spans on the same track nest by interval
containment, which is exactly how Chrome trace viewers (and the
self-time fold of ``tools/trace_report.py``) reconstruct the call tree.

The default is :data:`NULL_TRACER`, whose ``span`` returns one shared
no-op context manager and whose ``metrics`` is the no-op registry — the
instrumented loop pays only the call itself (the benchmark guard in
``benchmarks/bench_incremental_loop.py`` pins this below 1% of loop
time).  ``REPRO_TRACE=/path/to/file`` activates a process-wide tracer
without touching call sites (``REPRO_TRACE_FORMAT`` selects ``jsonl``,
the streaming default, or ``chrome``, written at interpreter exit).
"""

from __future__ import annotations

import atexit
import functools
import os
import threading
import time
from dataclasses import dataclass, field

from .metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "TRACE_ENV",
    "TRACE_FORMAT_ENV",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
]

#: Environment variable naming a trace output file.  When set (and no
#: explicit ``tracer=`` is given), every synthesis run in the process
#: traces into it — this is how CI runs the whole suite traced.
TRACE_ENV = "REPRO_TRACE"

#: Companion format knob for :data:`TRACE_ENV`: ``jsonl`` (default,
#: streamed) or ``chrome`` (one trace-event JSON written at exit).
TRACE_FORMAT_ENV = "REPRO_TRACE_FORMAT"


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


class Tracer:
    """Collects spans and metrics for one (or many) synthesis runs.

    Parameters
    ----------
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` counters publish
        into; a fresh one by default.
    sink:
        Optional callable invoked with each finished :class:`Span`.
        With a sink the tracer *streams* and retains nothing — the mode
        the ``REPRO_TRACE`` JSONL tracer uses so a whole test suite can
        run traced without accumulating memory.  Sinks are invoked
        without the tracer's lock, so one shared across threads must
        synchronize internally (the ``REPRO_TRACE`` sink does).
        Without a sink, spans are kept on :attr:`spans` for the
        exporters.
    """

    enabled = True

    def __init__(self, *, metrics: MetricsRegistry | None = None, sink=None):
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every finished span, in completion order (empty when streaming)."""
        with self._lock:
            return tuple(self._spans)

    # ------------------------------------------------------------ recording

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
        sink = self._sink
        if sink is not None:
            # Sinks serialize their own access (the REPRO_TRACE sink
            # holds a file lock) — taking the tracer lock here too would
            # double-lock the hottest path of the active tracer.
            sink(span)
            return
        with self._lock:
            self._spans.append(span)


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) with a single shared
    null span keeps the per-call cost to one attribute lookup and one
    call — small enough to leave tracing calls in every hot path (the
    benchmark guard holds it below 1% of loop time).  ``enabled`` is
    ``False`` so bulk publication sites can skip entirely.
    """

    __slots__ = ()

    enabled = False
    metrics = NULL_METRICS
    spans: tuple[Span, ...] = ()

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

_ENV_TRACER: "tuple[tuple[str, str], Tracer] | None" = None


def resolve_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """An explicit tracer, the ``REPRO_TRACE`` env tracer, or the null one.

    Call sites thread ``None`` through and resolution happens in one
    place.  The env tracer is process-wide
    and created once per ``(path, format)`` pair.
    """
    if tracer is not None:
        return tracer
    path = os.environ.get(TRACE_ENV, "").strip()
    if not path:
        return NULL_TRACER
    fmt = os.environ.get(TRACE_FORMAT_ENV, "").strip() or "jsonl"
    global _ENV_TRACER
    if _ENV_TRACER is not None and _ENV_TRACER[0] == (path, fmt):
        return _ENV_TRACER[1]
    env_tracer = _make_env_tracer(path, fmt)
    _ENV_TRACER = ((path, fmt), env_tracer)
    return env_tracer


def _make_env_tracer(path: str, fmt: str) -> Tracer:
    from .export import encode_event, metric_events, span_line, write_chrome_trace

    if fmt == "chrome":
        # Chrome trace-event JSON is one document: retain spans and
        # write the file when the process ends.
        tracer = Tracer()
        atexit.register(write_chrome_trace, tracer, path)
        return tracer
    if fmt != "jsonl":
        from ..errors import SynthesisError

        raise SynthesisError(f"{TRACE_FORMAT_ENV} must be 'jsonl' or 'chrome', got {fmt!r}")
    handle = open(path, "a", encoding="utf-8")
    lock = threading.Lock()
    pending = [0]

    def sink(span: Span) -> None:
        # A flush per span would syscall in the loop's hottest paths;
        # flushing every few hundred keeps a crashed run's prefix fresh
        # at a fraction of the cost (the OS buffer holds the rest).
        line = span_line(span)
        with lock:
            handle.write(line + "\n")
            pending[0] += 1
            if pending[0] >= 256:
                pending[0] = 0
                handle.flush()

    tracer = Tracer(sink=sink)

    def finish() -> None:
        with lock:
            for event in metric_events(tracer.metrics):
                handle.write(encode_event(event) + "\n")
            handle.flush()
            handle.close()

    atexit.register(finish)
    return tracer
