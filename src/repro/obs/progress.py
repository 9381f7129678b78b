"""Live progress events from the verify → test → learn loop.

The span tracer (:mod:`repro.obs.tracer`) answers "where did the time
go" after a run; its events answer "where is the loop *right now*"
while it runs.  Both synthesizers publish a small stream of typed
:class:`ProgressEvent` values through ``Tracer.event`` — loop started,
iteration begun, verify phase finished with its
``product_*``/``checker_*`` counter deltas, iteration finished, verdict
reached, quarantine admissions, test retries/timeouts, and every
anomaly — to each sink of the stream with an ``emit(event)`` method.

Three sinks ship here:

* :class:`CallbackProgressSink` — forwards every event to a callable;
  this is the hook a long-running service streams progress from
  (ROADMAP item 1) without inventing a second event schema.
* :class:`JsonlProgressSink` — appends one deterministic, sorted-key
  JSON object per event to a file or stream.
* :class:`TtyProgressSink` — renders a single in-place status line for
  the CLI's ``--progress`` flag.

Event names and their payload fields are a stable, tested contract
exactly like the span names — see :data:`PROGRESS_EVENT_NAMES` and
``docs/observability.md``.  Payloads carry only deterministic values
(counts, names, indices, verdicts — never wall-clock timings), so a
JSONL progress log is bit-reproducible from the same run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

__all__ = [
    "PROGRESS_EVENT_NAMES",
    "ProgressEvent",
    "CallbackProgressSink",
    "JsonlProgressSink",
    "TtyProgressSink",
]

#: The stable progress-event vocabulary.  Every event the synthesizers
#: emit uses one of these names; ``tests/test_progress.py`` pins the
#: set, and renaming an event is an API break for downstream consumers
#: (the service hook, the flight recorder's blackbox dumps).
PROGRESS_EVENT_NAMES = frozenset(
    {
        "loop.started",
        "iteration.started",
        "phase.finished",
        "iteration.finished",
        "verdict.reached",
        "quarantine.admitted",
        "test.retry",
        "test.timeout",
        "test.inconclusive",
        "anomaly.recorded",
        # Out-of-process component lifecycle (repro.legacy.remote): a
        # host spawned, SIGKILL-ed (deadline/violation), respawned after
        # a crash, or caught speaking the wire protocol wrong.
        "component.spawn",
        "component.kill",
        "component.respawn",
        "component.violation",
    }
)

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class ProgressEvent:
    """One typed progress notification.

    ``name`` is drawn from :data:`PROGRESS_EVENT_NAMES`; ``seq`` is the
    stream's monotonically increasing sequence number (deterministic
    for a deterministic run); ``payload`` holds the event's fields —
    plain JSON-serializable scalars, lists, and strings only.
    """

    name: str
    seq: int
    payload: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The canonical wire form: ``{"event": name, "seq": n, ...payload}``."""
        return {"event": self.name, "seq": self.seq, **self.payload}

    def encode(self) -> str:
        """Deterministic sorted-key compact JSON of :meth:`as_dict`."""
        return _ENCODE(self.as_dict())


class CallbackProgressSink:
    """Forward every event to ``callback(event)``.

    The integration hook for embedding callers: a synthesis service
    registers one callback per session and fans events out to its
    clients.  Exceptions from the callback propagate — a broken
    consumer should fail loudly, not silently drop progress.
    """

    __slots__ = ("_callback",)

    def __init__(self, callback):
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {type(callback).__name__}")
        self._callback = callback

    def emit(self, event: ProgressEvent) -> None:
        self._callback(event)


class JsonlProgressSink:
    """Append one JSON object per event to a path or text stream.

    Lines are sorted-key compact JSON (the same convention as the trace
    exporters), so two identical runs produce byte-identical logs.
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._stream = target
            self._owned = False
        else:
            self._stream = open(target, "w", encoding="utf-8")
            self._owned = True

    def emit(self, event: ProgressEvent) -> None:
        self._stream.write(event.encode() + "\n")

    def close(self) -> None:
        if self._owned:
            self._stream.close()
        else:
            self._stream.flush()


class TtyProgressSink:
    """Render a single in-place status line on a terminal.

    Each event refreshes one ``\\r``-rewritten line —
    ``iter 12 | verify ✓ | tests 34 | quarantine 2`` — and the final
    ``verdict.reached`` event prints a newline-terminated summary so
    the verdict survives in scrollback.  Used by ``--progress``.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stderr
        self._iteration = 0
        self._tests = 0
        self._quarantine = 0
        self._phase = ""
        self._width = 0

    def _render(self, line: str, *, final: bool = False) -> None:
        pad = max(self._width - len(line), 0)
        self._stream.write("\r" + line + " " * pad)
        self._width = 0 if final else len(line)
        if final:
            self._stream.write("\n")
        self._stream.flush()

    def emit(self, event: ProgressEvent) -> None:
        payload = event.payload
        if event.name == "iteration.started":
            self._iteration = payload.get("iteration", self._iteration)
            self._phase = "verify"
        elif event.name == "phase.finished":
            self._phase = str(payload.get("phase", self._phase)) + " done"
        elif event.name == "iteration.finished":
            self._tests += payload.get("tests_executed", 0)
            self._quarantine = payload.get("quarantine_size", self._quarantine)
            self._phase = "learned +%d" % payload.get("knowledge_gained", 0)
        elif event.name == "quarantine.admitted":
            self._quarantine = payload.get("quarantine_size", self._quarantine + 1)
        elif event.name == "verdict.reached":
            self._render(
                "verdict %s after %d iteration(s), %d test(s)"
                % (payload.get("verdict", "?"), payload.get("iterations", 0), self._tests),
                final=True,
            )
            return
        elif event.name not in PROGRESS_EVENT_NAMES:
            return
        self._render(
            "iter %d | %s | tests %d | quarantine %d"
            % (self._iteration, self._phase or "starting", self._tests, self._quarantine)
        )

    def close(self) -> None:
        if self._width:
            self._stream.write("\n")
            self._width = 0
            self._stream.flush()
