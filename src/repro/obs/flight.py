"""Flight recorder: a bounded event ring plus anomaly blackbox dumps.

Counters tell you *that* the loop degraded; they cannot tell you *how
it got there*.  The flight recorder keeps a bounded ring buffer of the
most recent loop events — iteration verdicts, verify-phase counter
deltas, fault/retry/quarantine admissions — and, when an anomaly
occurs (an inconclusive escalation, a test deadline expiry, a
quarantine admission, a ``SynthesisError``/``BUDGET_EXCEEDED``
degradation, or a conformance-campaign disagreement), dumps a
self-contained ``blackbox.json``: the last-N events, the full
:class:`~repro.synthesis.settings.SynthesisSettings` fingerprint, the
``REPRO_*`` environment plus ``PYTHONHASHSEED``, the fault seed, and
every iteration record so far.  The dump is everything needed to
replay the failure bit-for-bit from its seed.

The recorder is a sink on the one stream
(:class:`~repro.obs.tracer.Tracer`): its ring absorbs every event the
stream publishes, numbered with the stream's ``seq``, and
``Tracer.anomaly`` makes it dump.  Arm it with
``SynthesisSettings(tracer=Tracer(FlightRecorder(dir)))``, the CLI's
``--blackbox DIR``, or the ``REPRO_BLACKBOX`` environment variable
(pointing at the dump directory) picked up by
:func:`~repro.obs.tracer.resolve_tracer`.

Determinism: ring entries carry only deterministic values (no
wall-clock), dumps are sorted-key compact JSON, and the top-level
``payload_digest`` is the SHA-256 of the dump minus its ``env`` block
— for a deterministic scenario it is bit-identical across
``PYTHONHASHSEED`` values, so two blackboxes from the same seed can be
diffed by digest alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import deque
from pathlib import Path

from .progress import ProgressEvent

__all__ = [
    "BLACKBOX_SCHEMA",
    "FlightRecorder",
]

#: Schema tag written into every dump; bump on breaking layout changes.
BLACKBOX_SCHEMA = "repro.blackbox/1"

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _jsonable(value):
    """Map an arbitrary value onto deterministic JSON-safe structure.

    Scalars pass through, mappings/sequences recurse (sets are sorted
    by repr for stability), frozen dataclasses flatten field by field,
    and anything else falls back to its ``repr`` — which the loop
    already keeps deterministic (quarantine keys are run reprs).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(item) for item in value), key=repr)
    return repr(value)


def settings_fingerprint(settings) -> dict | None:
    """The comparable fields of a settings dataclass, JSON-safe.

    The non-compare field (the tracer) is observation plumbing,
    excluded exactly as it is from equality.
    """
    if settings is None:
        return None
    return {
        f.name: _jsonable(getattr(settings, f.name))
        for f in dataclasses.fields(settings)
        if f.compare
    }


def environment_fingerprint() -> dict[str, str]:
    """Every ``REPRO_*`` variable plus ``PYTHONHASHSEED``, sorted."""
    out = {
        key: os.environ[key]
        for key in sorted(os.environ)
        if key.startswith("REPRO_")
    }
    if "PYTHONHASHSEED" in os.environ:
        out["PYTHONHASHSEED"] = os.environ["PYTHONHASHSEED"]
    return out


def _record_dict(record) -> dict:
    """One iteration record flattened for the dump.

    Shared between :class:`~repro.synthesis.iterate.IterationRecord`
    and the multi-legacy twin — the verdict-ish fields are read with
    ``getattr`` defaults and the counters go through the canonical
    :func:`repro.obs.metrics.record_counters` ordering.
    """
    from .metrics import record_counters

    cex = getattr(record, "counterexample", None)
    return {
        "index": record.index,
        "property_holds": record.property_holds,
        "deadlock_free": record.deadlock_free,
        "violated": getattr(record, "violated", None),
        "fast_conflict": getattr(record, "fast_conflict", False),
        "knowledge_gained": getattr(record, "knowledge_gained", 0),
        "counterexample": None if cex is None else repr(cex),
        **{name: _jsonable(value) for name, value in record_counters(record).items()},
    }


class FlightRecorder:
    """Bounded event ring with deterministic anomaly dumps.

    Parameters
    ----------
    directory:
        Where ``blackbox.json`` is written on anomaly; ``None`` keeps
        the ring in memory only (anomalies still reach the ring and
        ``snapshot()`` still works — useful for embedding callers that
        ship the payload elsewhere).
    capacity:
        Ring size: only the most recent ``capacity`` events survive
        into a dump.
    label:
        Distinguishes dump files when several loops share a directory
        (the campaign labels per scenario seed):
        ``blackbox.json`` without a label, ``blackbox-<label>.json``
        with one.

    As a sink of a :class:`~repro.obs.tracer.Tracer` the recorder takes
    events (``emit``), loop context (``bind``) and anomalies (``dump``).
    Every anomaly rewrites the same dump file — the last dump holds the
    longest event history, and for a deterministic scenario the final
    file is bit-stable.
    """

    def __init__(self, directory=None, *, capacity: int = 256, label: str | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.directory = Path(directory) if directory is not None else None
        self.capacity = capacity
        self.label = label
        self._events: deque[dict] = deque(maxlen=capacity)
        self._recorded = 0
        self._settings = None
        self._records = None
        self.dumps = 0
        self.last_path: Path | None = None

    # ------------------------------------------------------------- recording

    def bind(self, *, settings=None, records=None) -> None:
        """Attach loop context included in every later dump.

        ``records`` is a zero-argument callable returning the iteration
        records so far (the loop's live list), read only at dump time.
        """
        if settings is not None:
            self._settings = settings
        if records is not None:
            self._records = records

    def emit(self, event: ProgressEvent) -> None:
        """Append one event; the ring drops the oldest beyond capacity."""
        self._events.append({"seq": event.seq, "event": event.name, **event.payload})
        self._recorded += 1

    @property
    def events(self) -> tuple[dict, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # --------------------------------------------------------------- dumping

    def snapshot(self, reason, /, **context) -> dict:
        """The dump payload as a dict (what :meth:`dump` serializes)."""
        records = self._records() if self._records is not None else ()
        payload = {
            "schema": BLACKBOX_SCHEMA,
            "reason": reason,
            "label": self.label,
            "capacity": self.capacity,
            "events_recorded": self._recorded,
            "events": list(self._events),
            "settings": settings_fingerprint(self._settings),
            "fault_seed": self._fault_seed(),
            "records": [_record_dict(record) for record in records],
            "context": {key: _jsonable(value) for key, value in context.items()},
            "env": environment_fingerprint(),
        }
        digest_basis = {key: value for key, value in payload.items() if key != "env"}
        payload["payload_digest"] = hashlib.sha256(
            _ENCODE(digest_basis).encode("utf-8")
        ).hexdigest()
        return payload

    def dump(self, reason, /, **context) -> Path | None:
        """Write ``blackbox.json`` (sorted keys, compact) and return its path."""
        payload = self.snapshot(reason, **context)
        self.dumps += 1
        if self.directory is None:
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        name = "blackbox.json" if self.label is None else f"blackbox-{self.label}.json"
        path = self.directory / name
        path.write_text(_ENCODE(payload) + "\n", encoding="utf-8")
        self.last_path = path
        return path

    def _fault_seed(self) -> int | None:
        settings = self._settings
        if settings is not None:
            resolver = getattr(settings, "resolved_fault_profile", None)
            profile = resolver() if resolver is not None else None
            if profile is not None:
                return profile.seed
        from ..testing.faults import FAULT_SEED_ENV

        raw = os.environ.get(FAULT_SEED_ENV, "").strip()
        if raw:
            try:
                return int(raw)
            except ValueError:
                return None
        return None
