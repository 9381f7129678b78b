"""Trace exporters: JSONL event logs, Chrome trace-event JSON, summaries.

Three audiences, three formats:

* JSONL — one JSON object per line (``{"type": "span", ...}`` then
  ``{"type": "metric", ...}``), greppable and streamable; what a
  :class:`TraceFile` sink appends live.
* Chrome — the trace-event format (a ``{"traceEvents": [...]}``
  document of ``ph: "X"`` complete events), loadable in Perfetto /
  ``chrome://tracing``.  Every tracer track becomes one named thread row
  under the coordinator's ``main`` track.
* :func:`render_trace_summary` — a plain-text per-iteration table of
  where each loop iteration spent its time, for terminals and CI logs.

:func:`fold_self_time` is the shared analysis primitive (also behind
``tools/trace_report.py``): spans on a track nest by interval
containment, and a span's *self time* is its duration minus its direct
children's — the number that actually ranks optimization targets.
"""

from __future__ import annotations

import json
import threading
from typing import Iterable, Sequence

from .metrics import MetricsRegistry
from .tracer import Span, Tracer

__all__ = [
    "span_event",
    "span_line",
    "encode_event",
    "metric_events",
    "chrome_trace",
    "TraceFile",
    "write_trace",
    "load_trace",
    "fold_self_time",
    "fold_diff",
    "render_fold_table",
    "render_fold_diff",
    "render_trace_summary",
]


# ----------------------------------------------------------------- JSONL form


def span_event(span: Span) -> dict:
    """The JSONL object of one span (times in seconds)."""
    return {
        "type": "span",
        "name": span.name,
        "track": span.track,
        "start": span.start,
        "dur": span.duration,
        "args": dict(span.args),
    }


#: Cached compact encoder — ``json.dumps`` builds a fresh encoder per
#: call, which dominates the streaming sink's per-span cost.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_event(event: dict) -> str:
    """One event as a compact, key-sorted JSON line (no newline)."""
    return _ENCODE(event)


def _args_json(args: dict) -> str:
    """Compact key-sorted JSON of a span's args, fast-pathing the usual
    shape: a few identifier keys mapping to ints or plain strings."""
    if not args:
        return "{}"
    parts = []
    for key in sorted(args):
        value = args[key]
        if type(value) is int:
            parts.append(f'"{key}":{value}')
        elif type(value) is str and '"' not in value and "\\" not in value:
            parts.append(f'"{key}":"{value}"')
        else:
            return _ENCODE(args)
    return "{" + ",".join(parts) + "}"


def span_line(span: Span) -> str:
    """``encode_event(span_event(span))`` without the intermediate dict.

    The streaming sinks serialize one span per finished ``with`` block,
    so this is the hottest line of the *active* tracer; the span shape
    is fixed, the names are library-controlled identifiers, ``repr`` of
    a finite float is valid JSON, and the args fast path covers the
    int/plain-string annotations the loop emits.  The output is
    byte-identical to the generic path (pinned by a test), keeping
    JSONL files diffable across both.
    """
    return (
        f'{{"args":{_args_json(span.args)},"dur":{span.duration!r},'
        f'"name":"{span.name}","start":{span.start!r},'
        f'"track":"{span.track}","type":"span"}}'
    )


def metric_events(metrics: MetricsRegistry) -> list[dict]:
    """One JSONL object per metric, name-sorted for determinism."""
    snapshot = metrics.as_dict()
    events: list[dict] = []
    for name, value in snapshot["counters"].items():
        events.append({"type": "metric", "kind": "counter", "name": name, "value": value})
    for name, value in snapshot["gauges"].items():
        events.append({"type": "metric", "kind": "gauge", "name": name, "value": value})
    for name, hist in snapshot["histograms"].items():
        events.append({"type": "metric", "kind": "histogram", "name": name, **hist})
    return events


# --------------------------------------------------------- Chrome trace form


def chrome_trace(tracer: Tracer) -> dict:
    """The Chrome trace-event document for a tracer's (or sink's) spans.

    One process (pid 1), one thread per track; tracks are named via
    ``thread_name`` metadata events and ordered by sorted track name, so
    the document is deterministic given a deterministic span set.
    Timestamps are microseconds from the tracer's epoch, per the format.
    """
    spans = tracer.spans
    tracks = sorted({span.track for span in spans})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "repro"}}
    ]
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tids[track],
                "name": "thread_name",
                "args": {"name": track},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tids[track],
                "name": "thread_sort_index",
                "args": {"sort_index": tids[track]},
            }
        )
    for span in spans:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids[span.track],
                "name": span.name,
                "cat": span.track,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": dict(span.args),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TraceFile:
    """The trace-file sink: JSONL streamed as spans finish, or Chrome at close.

    ``jsonl`` writes one :func:`span_line` per finished span, in batches
    of 256 lines with one unbuffered write each — so processes appending
    to one file (``append=True``, the ``REPRO_TRACE`` route) never split
    a line and a crashed run still leaves a usable prefix — then the
    :func:`metric_events` of the stream's registry when it closes.
    ``chrome`` keeps the spans (:attr:`spans`) and writes one
    trace-event document at close.  The file is opened at construction,
    so a bad path fails before any loop runs.
    """

    def __init__(self, path: str, *, format: str = "jsonl", append: bool = False):
        if format not in ("jsonl", "chrome"):
            raise ValueError(f"unknown trace format {format!r}; expected 'jsonl' or 'chrome'")
        self.path = str(path)
        self.format = format
        self.spans: list[Span] = []
        self._pending: list[str] = []
        self._lock = threading.Lock()
        self._handle = open(path, "ab" if append and format == "jsonl" else "wb", buffering=0)

    def on_span(self, span: Span) -> None:
        with self._lock:
            if self.format == "chrome":
                self.spans.append(span)
                return
            self._pending.append(span_line(span))
            if len(self._pending) >= 256:
                self._flush()

    def on_metrics(self, metrics: MetricsRegistry) -> None:
        if self.format == "jsonl":
            with self._lock:
                self._pending.extend(encode_event(event) for event in metric_events(metrics))

    def close(self) -> None:
        with self._lock:
            if self._handle.closed:
                return
            if self.format == "chrome":
                self._pending.append(json.dumps(chrome_trace(self), sort_keys=True))
            self._flush()
            self._handle.close()

    def _flush(self) -> None:
        if self._pending:
            self._handle.write(("\n".join(self._pending) + "\n").encode("utf-8"))
            self._pending.clear()


def write_trace(tracer: Tracer, path: str, *, format: str = "jsonl") -> None:
    """Write a tracer's retained spans and metrics as ``jsonl`` or ``chrome``."""
    sink = TraceFile(path, format=format)
    for span in tracer.spans:
        sink.on_span(span)
    sink.on_metrics(tracer.metrics)
    sink.close()


# ------------------------------------------------------------------- loading


def load_trace(path: str) -> tuple[list[Span], list[dict]]:
    """Read a JSONL or Chrome trace file back into (spans, metric events).

    Format is detected from the content: a single JSON document with
    ``traceEvents`` is a Chrome trace (track names recovered from the
    ``thread_name`` metadata), anything else is parsed line-by-line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped.splitlines()[0]:
        document = json.loads(text)
        names: dict[int, str] = {}
        for event in document["traceEvents"]:
            if event.get("ph") == "M" and event.get("name") == "thread_name":
                names[event["tid"]] = event["args"]["name"]
        spans = [
            Span(
                name=event["name"],
                track=names.get(event["tid"], f"tid-{event['tid']}"),
                start=event["ts"] / 1e6,
                duration=event["dur"] / 1e6,
                args=dict(event.get("args", {})),
            )
            for event in document["traceEvents"]
            if event.get("ph") == "X"
        ]
        return spans, []
    spans = []
    metrics: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        event = json.loads(line)
        if event.get("type") == "span":
            spans.append(
                Span(
                    name=event["name"],
                    track=event["track"],
                    start=event["start"],
                    duration=event["dur"],
                    args=dict(event.get("args", {})),
                )
            )
        elif event.get("type") == "metric":
            metrics.append(event)
    return spans, metrics


# ------------------------------------------------------------------ analysis


def fold_self_time(spans: Iterable[Span]) -> list[dict]:
    """Aggregate spans into per-name count / total / self-time rows.

    Spans nest by interval containment per track (the same rule trace
    viewers use); a span's self time excludes its direct children.
    Rows are sorted by descending self time, then name.
    """
    agg: dict[str, list[float]] = {}
    by_track: dict[str, list[Span]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)

    def commit(name: str, duration: float, child_total: float, stack: list) -> None:
        entry = agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += max(duration - child_total, 0.0)
        if stack:
            stack[-1][3] += duration

    for track in sorted(by_track):
        ordered = sorted(by_track[track], key=lambda s: (s.start, -s.duration))
        # Open-span stack entries: [end, name, duration, child_total].
        stack: list[list] = []
        for span in ordered:
            while stack and span.start >= stack[-1][0]:
                closed = stack.pop()
                commit(closed[1], closed[2], closed[3], stack)
            stack.append([span.start + span.duration, span.name, span.duration, 0.0])
        while stack:
            closed = stack.pop()
            commit(closed[1], closed[2], closed[3], stack)
    return sorted(
        (
            {"name": name, "count": int(count), "total": total, "self": self_time}
            for name, (count, total, self_time) in agg.items()
        ),
        key=lambda row: (-row["self"], row["name"]),
    )


def render_fold_table(rows: Sequence[dict], *, limit: int | None = None) -> str:
    """The top-N self-time table of :func:`fold_self_time` rows."""
    shown = list(rows if limit is None else rows[:limit])
    header = f"{'span':<28} {'count':>7} {'total ms':>10} {'self ms':>10} {'self %':>7}"
    lines = [header, "-" * len(header)]
    grand_self = sum(row["self"] for row in rows) or 1.0
    for row in shown:
        lines.append(
            f"{row['name']:<28} {row['count']:>7} {row['total'] * 1e3:>10.2f} "
            f"{row['self'] * 1e3:>10.2f} {100.0 * row['self'] / grand_self:>6.1f}%"
        )
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span name(s)")
    return "\n".join(lines)


def fold_diff(old_rows: Sequence[dict], new_rows: Sequence[dict]) -> list[dict]:
    """Attribute a time regression to phases: diff two self-time folds.

    Takes two :func:`fold_self_time` results (old and new run of the
    same scenario) and returns one row per span name with the old/new
    self times, their delta, and the count delta.  Rows are sorted by
    descending absolute self-time delta, then name — the top row is
    the phase that moved the most.  Names present in only one fold
    diff against zero.
    """
    old = {row["name"]: row for row in old_rows}
    new = {row["name"]: row for row in new_rows}
    rows = []
    for name in sorted(old.keys() | new.keys()):
        old_self = old.get(name, {}).get("self", 0.0)
        new_self = new.get(name, {}).get("self", 0.0)
        rows.append(
            {
                "name": name,
                "old_self": old_self,
                "new_self": new_self,
                "delta_self": new_self - old_self,
                "old_count": old.get(name, {}).get("count", 0),
                "new_count": new.get(name, {}).get("count", 0),
            }
        )
    return sorted(rows, key=lambda row: (-abs(row["delta_self"]), row["name"]))


def render_fold_diff(rows: Sequence[dict], *, limit: int | None = None) -> str:
    """The phase-attribution table of :func:`fold_diff` rows."""
    shown = list(rows if limit is None else rows[:limit])
    header = (
        f"{'span':<28} {'old ms':>10} {'new ms':>10} {'delta ms':>10} "
        f"{'delta %':>8} {'count':>11}"
    )
    lines = [header, "-" * len(header)]
    for row in shown:
        base = row["old_self"]
        percent = f"{100.0 * row['delta_self'] / base:>7.1f}%" if base > 0 else "     new"
        lines.append(
            f"{row['name']:<28} {row['old_self'] * 1e3:>10.2f} "
            f"{row['new_self'] * 1e3:>10.2f} {row['delta_self'] * 1e3:>+10.2f} "
            f"{percent} {row['old_count']:>5}->{row['new_count']:<5}"
        )
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span name(s)")
    total = sum(row["delta_self"] for row in rows)
    lines.append(f"net self-time delta: {total * 1e3:+.2f} ms")
    return "\n".join(lines)


#: Main-track phase spans broken out per iteration by the summary table,
#: in column order.  Everything else inside the iteration lands in
#: "other" (self time of the iteration span itself).
_SUMMARY_PHASES = (
    "verify.step",
    "checker.check",
    "counterexample.derive",
    "test.execute",
    "monitor.replay",
    "learn.merge",
)


def render_trace_summary(tracer_or_spans) -> str:
    """A plain-text per-iteration time breakdown of one traced run.

    Accepts a tracer or an iterable of spans.  Each ``loop.iteration``
    span on the ``main`` track becomes one row; top-level phase spans it
    contains are attributed by start-time containment.  Milliseconds
    throughout.  Falls back to the self-time fold when the trace holds
    no iteration spans.
    """
    spans = list(tracer_or_spans.spans if hasattr(tracer_or_spans, "spans") else tracer_or_spans)
    main = sorted((s for s in spans if s.track == "main"), key=lambda s: s.start)
    iterations = [s for s in main if s.name == "loop.iteration"]
    if not iterations:
        return render_fold_table(fold_self_time(spans))
    columns = ["verify", "checker", "cex", "test", "replay", "learn"]
    header = f"{'it':>4} {'total':>9} " + " ".join(f"{c:>9}" for c in columns) + f" {'other':>9}"
    lines = [header, "-" * len(header)]
    for iteration in iterations:
        end = iteration.start + iteration.duration
        inside = [
            s
            for s in main
            if s is not iteration and iteration.start <= s.start < end
        ]
        phase_time = dict.fromkeys(_SUMMARY_PHASES, 0.0)
        accounted = 0.0
        for span in inside:
            if span.name in phase_time:
                phase_time[span.name] += span.duration
                accounted += span.duration
        other = max(iteration.duration - accounted, 0.0)
        index = iteration.args.get("index", "?")
        cells = " ".join(f"{phase_time[p] * 1e3:>9.2f}" for p in _SUMMARY_PHASES)
        lines.append(
            f"{index:>4} {iteration.duration * 1e3:>9.2f} {cells} {other * 1e3:>9.2f}"
        )
    return "\n".join(lines)
