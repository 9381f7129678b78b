"""The flight recorder: ring semantics, anomaly dumps, reproducibility.

The blackbox dump is a debugging artifact whose whole value is being
*trustworthy*: the tests pin its schema, its activation routes
(settings / ``--blackbox`` / ``REPRO_BLACKBOX``), and — the load-bearing
property — that a chaos run's dump is bit-reproducible: byte-identical
across repeated runs from the same fault seed, and identical modulo the
``env`` block (compared via ``payload_digest``) across
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import railcab
from repro.errors import SynthesisError
from repro.obs import (
    BLACKBOX_ENV,
    NULL_FLIGHT_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
    ProgressEvent,
    resolve_flight_recorder,
)
from repro.obs.flight import BLACKBOX_SCHEMA, environment_fingerprint, settings_fingerprint
from repro.synthesis import IntegrationSynthesizer, MultiLegacySynthesizer, SynthesisSettings, Verdict
from repro.testing import FaultProfile, RetryPolicy

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _synthesizer(settings: SynthesisSettings) -> IntegrationSynthesizer:
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        settings=settings,
    )


def _multi_synthesizer(settings: SynthesisSettings) -> MultiLegacySynthesizer:
    """The two-legacy convoy."""
    return MultiLegacySynthesizer(
        None,
        [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)],
        railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
        settings=settings,
    )


def _chaos_settings(recorder, seed: int = 7, max_iterations: int = 8) -> SynthesisSettings:
    # A hostile profile with no retry budget: every faulted test stays
    # inconclusive, so the run exercises the full anomaly surface
    # (test_inconclusive escalations, then budget_exceeded).
    return SynthesisSettings(
        max_iterations=max_iterations,
        fault_profile=FaultProfile.hostile(seed),
        retry_policy=RetryPolicy(max_attempts=1, record_rounds=1),
        flight_recorder=recorder,
    )


class TestRing:
    def test_record_and_eviction(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record("iteration.started", iteration=index)
        assert len(recorder) == 3
        assert [event["iteration"] for event in recorder.events] == [2, 3, 4]
        # Sequence numbers keep counting across evictions.
        assert [event["seq"] for event in recorder.events] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_doubles_as_progress_sink(self):
        recorder = FlightRecorder()
        recorder.emit(ProgressEvent("verdict.reached", 3, {"verdict": "proven"}))
        (event,) = recorder.events
        assert event["event"] == "verdict.reached"
        assert event["verdict"] == "proven"

    def test_null_recorder_is_inert(self, tmp_path):
        assert NULL_FLIGHT_RECORDER.enabled is False
        assert isinstance(NULL_FLIGHT_RECORDER, NullFlightRecorder)
        NULL_FLIGHT_RECORDER.record("x", a=1)
        NULL_FLIGHT_RECORDER.bind(settings=None)
        assert NULL_FLIGHT_RECORDER.anomaly("anything", detail=1) is None
        assert list(tmp_path.iterdir()) == []


class TestResolution:
    def test_default_is_the_null_singleton(self, monkeypatch):
        monkeypatch.delenv(BLACKBOX_ENV, raising=False)
        assert resolve_flight_recorder() is NULL_FLIGHT_RECORDER
        assert SynthesisSettings().resolved_flight_recorder() is NULL_FLIGHT_RECORDER

    def test_explicit_recorder_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BLACKBOX_ENV, str(tmp_path / "env"))
        mine = FlightRecorder(tmp_path / "mine")
        assert resolve_flight_recorder(mine) is mine

    def test_env_activation_is_cached_per_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BLACKBOX_ENV, str(tmp_path / "a"))
        first = resolve_flight_recorder()
        assert isinstance(first, FlightRecorder)
        assert first.directory == tmp_path / "a"
        assert resolve_flight_recorder() is first
        monkeypatch.setenv(BLACKBOX_ENV, str(tmp_path / "b"))
        second = resolve_flight_recorder()
        assert second is not first
        assert second.directory == tmp_path / "b"

    def test_settings_reject_recorder_without_hooks(self):
        with pytest.raises(SynthesisError, match="flight_recorder must provide"):
            SynthesisSettings(flight_recorder=object())

    def test_recorder_does_not_affect_settings_equality(self):
        assert SynthesisSettings() == SynthesisSettings(flight_recorder=FlightRecorder())


class TestDump:
    def test_anomaly_writes_schema_complete_dump(self, tmp_path):
        recorder = FlightRecorder(tmp_path, capacity=8)
        recorder.bind(settings=SynthesisSettings(max_iterations=5))
        recorder.record("iteration.started", iteration=0)
        path = recorder.anomaly("test_timeout", test="probe", attempts=2)
        assert path == tmp_path / "blackbox.json"
        assert recorder.dumps == 1
        assert recorder.last_path == path
        dump = json.loads(path.read_text())
        assert dump["schema"] == BLACKBOX_SCHEMA
        assert dump["reason"] == "test_timeout"
        assert dump["context"] == {"test": "probe", "attempts": 2}
        assert dump["settings"]["max_iterations"] == 5
        assert "flight_recorder" not in dump["settings"]
        assert dump["events"][-1]["event"] == "anomaly.recorded"
        assert dump["events"][-1]["reason"] == "test_timeout"
        assert dump["payload_digest"]
        # The file itself is the deterministic compact encoding.
        assert path.read_text() == json.dumps(
            dump, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_label_names_the_dump_file(self, tmp_path):
        recorder = FlightRecorder(tmp_path, label="seed-12")
        assert recorder.anomaly("campaign_disagreement") == tmp_path / "blackbox-seed-12.json"

    def test_directoryless_anomaly_still_records(self):
        recorder = FlightRecorder()
        assert recorder.anomaly("probe", detail=1) is None
        assert recorder.dumps == 1
        assert recorder.events[-1]["event"] == "anomaly.recorded"
        snapshot = recorder.snapshot("probe")
        assert snapshot["schema"] == BLACKBOX_SCHEMA

    def test_environment_fingerprint_filters_and_sorts(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZETA", "1")
        monkeypatch.setenv("REPRO_ALPHA", "2")
        monkeypatch.setenv("UNRELATED", "3")
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        fingerprint = environment_fingerprint()
        assert "UNRELATED" not in fingerprint
        assert fingerprint["PYTHONHASHSEED"] == "0"
        keys = [key for key in fingerprint if key.startswith("REPRO_")]
        assert keys == sorted(keys)

    def test_settings_fingerprint_skips_plumbing_fields(self):
        fingerprint = settings_fingerprint(
            SynthesisSettings(flight_recorder=FlightRecorder())
        )
        assert "flight_recorder" not in fingerprint
        assert "tracer" not in fingerprint
        assert "progress" not in fingerprint
        assert fingerprint["incremental"] is True
        assert settings_fingerprint(None) is None


class TestLoopIntegration:
    def test_clean_run_records_but_never_dumps(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        result = _synthesizer(SynthesisSettings(flight_recorder=recorder)).run()
        assert result.verdict is Verdict.PROVEN
        assert len(recorder) > 0
        assert recorder.events[-1]["event"] == "verdict.reached"
        assert recorder.dumps == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("build", [_synthesizer, _multi_synthesizer], ids=["single", "multi"])
    def test_chaos_run_dumps_a_replayable_blackbox(self, tmp_path, build):
        recorder = FlightRecorder(tmp_path)
        result = build(_chaos_settings(recorder)).run()
        assert result.verdict is Verdict.BUDGET_EXCEEDED
        assert recorder.dumps > 0
        dump = json.loads((tmp_path / "blackbox.json").read_text())
        assert dump["reason"] == "budget_exceeded"
        assert dump["fault_seed"] == 7
        assert dump["settings"]["max_iterations"] == 8
        assert dump["settings"]["retry_policy"]["max_attempts"] == 1
        # The iteration records in the dump mirror the result's.
        assert len(dump["records"]) == result.iteration_count
        assert [record["index"] for record in dump["records"]] == [
            record.index for record in result.iterations
        ]
        reasons = {
            event["reason"]
            for event in dump["events"]
            if event["event"] == "anomaly.recorded"
        }
        assert "budget_exceeded" in reasons

    def test_env_route_arms_the_loop(self, tmp_path):
        env = dict(os.environ)
        env[BLACKBOX_ENV] = str(tmp_path)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        script = """
from repro import railcab
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings
from repro.testing import FaultProfile, RetryPolicy

IntegrationSynthesizer(
    railcab.front_role_automaton(),
    railcab.correct_rear_shuttle(convoy_ticks=1),
    railcab.PATTERN_CONSTRAINT,
    labeler=railcab.rear_state_labeler,
    port="rearRole",
    settings=SynthesisSettings(
        max_iterations=4,
        fault_profile=FaultProfile.hostile(3),
        retry_policy=RetryPolicy(max_attempts=1, record_rounds=1),
    ),
).run()
"""
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        dump = json.loads((tmp_path / "blackbox.json").read_text())
        assert dump["reason"] == "budget_exceeded"
        assert dump["fault_seed"] == 3
        assert dump["env"][BLACKBOX_ENV] == str(tmp_path)


_REPRO_SCRIPT = """
import pathlib, sys
from repro import railcab
from repro.obs import FlightRecorder
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings
from repro.testing import FaultProfile, RetryPolicy

IntegrationSynthesizer(
    railcab.front_role_automaton(),
    railcab.correct_rear_shuttle(convoy_ticks=1),
    railcab.PATTERN_CONSTRAINT,
    labeler=railcab.rear_state_labeler,
    port="rearRole",
    settings=SynthesisSettings(
        max_iterations=6,
        fault_profile=FaultProfile.hostile(11),
        retry_policy=RetryPolicy(max_attempts=1, record_rounds=1),
        flight_recorder=FlightRecorder(sys.argv[1]),
    ),
).run()
"""


class TestBitReproducibility:
    """The acceptance property: dumps replay bit-for-bit from the seed."""

    def _dump_under(self, tmp_path, tag: str, hash_seed: str) -> dict:
        directory = tmp_path / tag
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = hash_seed
        env.pop(BLACKBOX_ENV, None)
        subprocess.run(
            [sys.executable, "-c", _REPRO_SCRIPT, str(directory)],
            capture_output=True, text=True, env=env, check=True,
        )
        path = directory / "blackbox.json"
        return {"bytes": path.read_bytes(), "dump": json.loads(path.read_text())}

    def test_same_seed_is_byte_identical_and_hash_seed_only_moves_env(self, tmp_path):
        first = self._dump_under(tmp_path, "run-a", "0")
        again = self._dump_under(tmp_path, "run-b", "0")
        assert first["bytes"] == again["bytes"]

        runs = [first] + [
            self._dump_under(tmp_path, f"hs-{seed}", seed) for seed in ("1", "2")
        ]
        digests = {run["dump"]["payload_digest"] for run in runs}
        assert len(digests) == 1, f"dump varied across hash seeds: {digests}"
        # Belt and braces: the full payloads minus the env block match.
        stripped = [
            {key: value for key, value in run["dump"].items() if key != "env"}
            for run in runs
        ]
        assert stripped[0] == stripped[1] == stripped[2]
        # And the env block is exactly where the hash seed shows up.
        assert {run["dump"]["env"]["PYTHONHASHSEED"] for run in runs} == {"0", "1", "2"}


class TestCommandLine:
    def test_blackbox_flag_writes_dump_and_reports(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["railcab", "--shuttle", "correct", "--max-iterations", "4",
             "--blackbox", str(tmp_path), "--test-retries", "0"]
            + ["--fault-seed", "9"]
        )
        # The mild profile may or may not exhaust the budget; the flag
        # contract is: a dump appears iff an anomaly happened, and the
        # CLI says where it went when one did.
        out = capsys.readouterr().out
        dumped = (tmp_path / "blackbox.json").exists()
        assert ("blackbox dumped to" in out) == dumped
        assert code in (0, 1)

    def test_campaign_dump_blackbox_labels_per_seed(self, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "campaign", REPO_ROOT / "tools" / "campaign.py"
        )
        campaign = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(campaign)

        class Spec:
            seed = 42

        class Scenario:
            spec = Spec()

        class Evaluation:
            disagreements = ("incremental: proven != violation",)
            degraded = ()

        record = {
            "seed": 42,
            "fingerprint": "abc123",
            "slots": 2,
            "joint": 64,
            "plants": ["p1", "p2"],
            "truth": {"scenario": "proven"},
        }
        path = campaign.dump_blackbox(tmp_path, Scenario(), Evaluation(), record)
        assert path == tmp_path / "blackbox-seed-42.json"
        dump = json.loads(path.read_text())
        assert dump["reason"] == "campaign_disagreement"
        assert dump["context"]["fingerprint"] == "abc123"
        assert dump["context"]["disagreements"] == ["incremental: proven != violation"]
        events = {event["event"] for event in dump["events"]}
        assert {"campaign.scenario", "campaign.disagreement", "anomaly.recorded"} <= events
