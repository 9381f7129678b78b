"""The consolidated :class:`SynthesisSettings` API.

One frozen settings object carries every loop-tuning knob through
``integrate`` / ``IntegrationSynthesizer`` / ``MultiLegacySynthesizer``.
The regression tests at the bottom pin the ``integrate`` → multi-legacy
forwarding bug: the joint branch used to drop ``universes`` and the
counterexample batch size on the floor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import railcab
from repro.errors import SynthesisError
from repro.integration import SynthesisSettings, integrate
from repro.legacy import interface_of
from repro.obs import CallbackProgressSink, Tracer
from repro.synthesis import IntegrationSynthesizer, Verdict
from repro.synthesis.multi import MultiLegacySynthesizer
from tests.test_integration_facade import convoy_architecture, two_legacy_architecture


# ------------------------------------------------------------------ the object


class TestSynthesisSettings:
    def test_defaults(self):
        settings = SynthesisSettings()
        assert settings.max_iterations is None
        assert settings.counterexamples_per_iteration == 1
        assert settings.iterations_or(500) == 500
        assert SynthesisSettings(max_iterations=7).iterations_or(500) == 7
        assert [field.name for field in dataclasses.fields(SynthesisSettings)] == [
            "max_iterations",
            "counterexamples_per_iteration",
            "retry_policy",
            "fault_profile",
            "remote",
            "tracer",
        ]
        # The incremental engine is the loop's only verification path.
        with pytest.raises(TypeError, match="incremental"):
            SynthesisSettings(incremental=False)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SynthesisSettings().max_iterations = 3  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(SynthesisError, match="counterexamples_per_iteration"):
            SynthesisSettings(counterexamples_per_iteration=0)
        with pytest.raises(SynthesisError, match="max_iterations"):
            SynthesisSettings(max_iterations=0)


# ------------------------------------------------------------ deprecated shims


class TestDeprecatedKeywords:
    """The loop keywords deprecated in 1.x are gone in 2.0: settings only."""

    def test_settings_alone_do_not_warn(self, recwarn):
        IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
            settings=SynthesisSettings(max_iterations=50),
        )
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_loop_knobs_are_settings_only(self):
        with pytest.raises(TypeError, match="max_iterations"):
            IntegrationSynthesizer(
                railcab.front_role_automaton(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
                railcab.PATTERN_CONSTRAINT,
                max_iterations=50,
            )
        with pytest.raises(TypeError, match="incremental"):
            MultiLegacySynthesizer(
                None,
                [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle()],
                railcab.PATTERN_CONSTRAINT,
                incremental=False,
            )
        with pytest.raises(TypeError, match="counterexamples_per_iteration"):
            integrate(convoy_architecture(), {}, counterexamples_per_iteration=2)


# ----------------------------------------------- integrate forwarding (bugfix)


class _Recorder(MultiLegacySynthesizer):
    """Real multi-synthesizer that also records its constructor kwargs."""

    captured: dict = {}

    def __init__(self, *args, **kwargs):
        type(self).captured = dict(kwargs)
        super().__init__(*args, **kwargs)


class TestIntegrateForwarding:
    def test_multi_branch_forwards_universes_and_settings(self, monkeypatch):
        monkeypatch.setattr(
            "repro.integration.MultiLegacySynthesizer", _Recorder
        )
        front = railcab.correct_front_shuttle()
        rear = railcab.correct_rear_shuttle(convoy_ticks=1)
        settings = SynthesisSettings(counterexamples_per_iteration=2)
        report = integrate(
            two_legacy_architecture(),
            {"leader": front, "follower": rear},
            labelers={
                "leader": railcab.front_state_labeler,
                "follower": railcab.rear_state_labeler,
            },
            universes={"follower": interface_of(rear).universe()},
            settings=settings,
        )
        assert report.ok
        captured = _Recorder.captured
        # The bug: both of these used to be dropped on the multi branch.
        assert captured["universes"] == {
            rear.name: interface_of(rear).universe()
        }
        assert captured["settings"] == settings
        assert captured["settings"].counterexamples_per_iteration == 2

    def test_single_branch_forwards_settings(self):
        events = []
        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
            labelers={"follower": railcab.rear_state_labeler},
            settings=SynthesisSettings(
                max_iterations=1, tracer=Tracer(CallbackProgressSink(events.append))
            ),
        )
        result = report.placements["follower"]
        assert result.verdict is Verdict.BUDGET_EXCEEDED
        assert result.iteration_count == 1
        assert events[0].name == "loop.started"
