"""Live progress events: name contract, the stream's fan-out, the sinks.

Progress-event names and payload fields are a stable contract exactly
like span names (``docs/observability.md``): a service streaming
``CallbackProgressSink`` events and the flight recorder's blackbox
dumps both key off them, so the tests pin the exact vocabulary and the
payload fields of every event kind the loop emits.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import railcab
from repro.errors import SynthesisError
from repro.obs import (
    PROGRESS_EVENT_NAMES,
    CallbackProgressSink,
    FlightRecorder,
    JsonlProgressSink,
    ProgressEvent,
    Tracer,
    TtyProgressSink,
)
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict
from repro.synthesis.multi import MultiLegacySynthesizer
from repro.testing import FaultProfile, RetryPolicy


def _run_with_sink(*sinks, **settings_kwargs):
    result = IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        settings=SynthesisSettings(tracer=Tracer(*sinks), **settings_kwargs),
    ).run()
    return result


class TestEventContract:
    def test_vocabulary_is_pinned(self):
        # Renaming or removing an event is an API break; adding one
        # means updating docs/observability.md and this set together.
        assert PROGRESS_EVENT_NAMES == {
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
            "component.spawn",
            "component.kill",
            "component.respawn",
            "component.violation",
        }

    def test_loop_emits_only_contract_names_in_order(self):
        events: list[ProgressEvent] = []
        result = _run_with_sink(CallbackProgressSink(events.append))
        assert result.verdict is Verdict.PROVEN
        assert events, "no progress events emitted"
        assert {e.name for e in events} <= PROGRESS_EVENT_NAMES
        # A healthy proven run touches the core lifecycle events.
        assert {e.name for e in events} >= {
            "loop.started",
            "iteration.started",
            "phase.finished",
            "iteration.finished",
            "verdict.reached",
        }
        assert [e.seq for e in events] == list(range(len(events)))
        # Under REPRO_REMOTE the synthesizer re-hosts the component at
        # construction, so a component.spawn may precede loop.started.
        assert events[0].name in ("loop.started", "component.spawn")
        assert events[-1].name == "verdict.reached"

    def test_event_payloads(self):
        events: list[ProgressEvent] = []
        result = _run_with_sink(CallbackProgressSink(events.append))
        by_name = {}
        for event in events:
            by_name.setdefault(event.name, event)

        started = by_name["loop.started"].payload
        assert started == {"synthesizer": "IntegrationSynthesizer", "max_iterations": 500}

        phase = by_name["phase.finished"].payload
        assert phase["phase"] == "verify"
        assert {"iteration", "property_holds", "deadlock_free", "composed_states"} <= set(phase)

        finished = by_name["iteration.finished"].payload
        assert {
            "iteration",
            "property_holds",
            "deadlock_free",
            "tests_executed",
            "knowledge_gained",
            "quarantine_size",
        } <= set(finished)

        verdict = by_name["verdict.reached"].payload
        assert verdict["verdict"] == Verdict.PROVEN.value
        assert verdict["iterations"] == result.iteration_count

        # Every payload must survive the deterministic wire encoding.
        for event in events:
            decoded = json.loads(event.encode())
            assert decoded["event"] == event.name
            assert decoded["seq"] == event.seq

    def test_multi_loop_emits_components(self):
        events: list[ProgressEvent] = []
        result = MultiLegacySynthesizer(
            None,
            [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)],
            railcab.PATTERN_CONSTRAINT,
            labelers={
                "frontShuttle": railcab.front_state_labeler,
                "rearShuttle": railcab.rear_state_labeler,
            },
            settings=SynthesisSettings(tracer=Tracer(CallbackProgressSink(events.append))),
        ).run()
        assert result.verdict is Verdict.PROVEN
        assert {e.name for e in events} <= PROGRESS_EVENT_NAMES
        started = next(e for e in events if e.name == "loop.started")
        assert started.payload["synthesizer"] == "MultiLegacySynthesizer"
        assert started.payload["components"] == ["frontShuttle", "rearShuttle"]
        assert events[-1].name == "verdict.reached"


class TestEmitter:
    """The stream's event fan-out (``Tracer.event``)."""

    def test_fan_out_shares_one_sequence(self):
        left: list[ProgressEvent] = []
        right: list[ProgressEvent] = []
        stream = Tracer(CallbackProgressSink(left.append), CallbackProgressSink(right.append))
        stream.event("loop.started", synthesizer="x")
        stream.event("verdict.reached", verdict="proven")
        assert [e.seq for e in left] == [0, 1]
        assert left == right  # the same event objects reach every sink
        assert left[0] is right[0]

    def test_none_and_disabled_observers_are_dropped(self):
        class Disabled:
            enabled = False

            def emit(self, event):  # pragma: no cover - must never run
                raise AssertionError("disabled observer received an event")

        stream = Tracer(None, Disabled())
        assert stream.sinks == ()
        stream.event("iteration.started", iteration=0)  # must not raise

    def test_callback_sink_requires_callable(self):
        with pytest.raises(TypeError, match="callable"):
            CallbackProgressSink(42)

    def test_callback_exceptions_propagate(self):
        def broken(event):
            raise RuntimeError("consumer died")

        stream = Tracer(CallbackProgressSink(broken))
        with pytest.raises(RuntimeError, match="consumer died"):
            stream.event("loop.started")


class TestOneStream:
    """Every sink on a stream sees the same sequenced events, once each."""

    def test_anomalies_reach_progress_sinks_in_ring_order(self):
        # A hostile chaos run: every faulted test stays inconclusive, so
        # anomalies (quarantine admissions, inconclusive escalations,
        # the exhausted budget) interleave with the loop's events.
        events: list[ProgressEvent] = []
        ring = FlightRecorder(capacity=4096)
        result = _run_with_sink(
            CallbackProgressSink(events.append),
            ring,
            max_iterations=8,
            fault_profile=FaultProfile.hostile(7),
            retry_policy=RetryPolicy(max_attempts=1, record_rounds=1),
        )
        assert result.verdict is Verdict.BUDGET_EXCEEDED
        assert [(e["seq"], e["event"]) for e in ring.events] == [
            (e.seq, e.name) for e in events
        ]
        anomalies = [e for e in events if e.name == "anomaly.recorded"]
        assert len(anomalies) > 1
        assert anomalies[-1].payload["reason"] == "budget_exceeded"

    def test_sink_given_twice_receives_each_event_once(self):
        once: list[ProgressEvent] = []
        _run_with_sink(CallbackProgressSink(once.append))
        ring = FlightRecorder(capacity=4096)
        stream = Tracer(ring, ring)
        assert stream.sinks == (ring,)
        IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
            settings=SynthesisSettings(tracer=stream),
        ).run()
        assert [entry["event"] for entry in ring.events] == [event.name for event in once]
        seqs = [entry["seq"] for entry in ring.events]
        assert seqs == list(range(len(seqs)))


class TestSinks:
    def test_jsonl_sink_writes_deterministic_lines(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)
        _run_with_sink(sink)
        sink.close()
        lines = path.read_text().splitlines()
        assert lines
        decoded = [json.loads(line) for line in lines]
        assert decoded[0]["event"] in ("loop.started", "component.spawn")
        assert decoded[-1]["event"] == "verdict.reached"
        assert [entry["seq"] for entry in decoded] == list(range(len(decoded)))
        # Sorted-key compact encoding: re-encoding reproduces the line.
        for line, entry in zip(lines, decoded):
            assert line == json.dumps(entry, sort_keys=True, separators=(",", ":"))

    def test_jsonl_sink_borrowed_stream_stays_open(self):
        stream = io.StringIO()
        sink = JsonlProgressSink(stream)
        sink.emit(ProgressEvent("loop.started", 0, {}))
        sink.close()
        assert not stream.closed
        assert json.loads(stream.getvalue()) == {"event": "loop.started", "seq": 0}

    def test_tty_sink_renders_status_and_verdict(self):
        stream = io.StringIO()
        result = _run_with_sink(TtyProgressSink(stream))
        output = stream.getvalue()
        assert "\r" in output
        assert "quarantine" in output
        final = output.rstrip("\n").rsplit("\r", 1)[-1]
        assert final.startswith(
            f"verdict proven after {result.iteration_count} iteration(s)"
        )
        assert output.endswith("\n")

    def test_tty_close_flushes_pending_line(self):
        stream = io.StringIO()
        sink = TtyProgressSink(stream)
        sink.emit(ProgressEvent("iteration.started", 0, {"iteration": 0}))
        assert not stream.getvalue().endswith("\n")
        sink.close()
        assert stream.getvalue().endswith("\n")
        sink.close()  # idempotent


class TestSettingsValidation:
    def test_progress_must_have_emit(self):
        with pytest.raises(TypeError, match="a sink must provide"):
            Tracer(42)

    def test_progress_does_not_affect_equality(self):
        plain = SynthesisSettings()
        sinked = SynthesisSettings(tracer=Tracer(CallbackProgressSink(lambda e: None)))
        assert plain == sinked
