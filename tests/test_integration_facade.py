"""Tests for the top-level ``integrate`` façade."""

import pytest

from repro import railcab
from repro.errors import SynthesisError
from repro.integration import IntegrationReport, integrate
from repro.muml import Architecture, Component, Port
from repro.synthesis import SynthesisSettings, Verdict


def convoy_architecture() -> Architecture:
    pattern = railcab.distance_coordination_pattern()
    front_port = Port("front", pattern.role("frontRole"), railcab.front_role_automaton())
    architecture = Architecture("convoy")
    architecture.add_component(Component("leader", [front_port]))
    architecture.add_legacy("follower")
    architecture.instantiate(
        pattern,
        {"frontRole": ("leader", "front"), "rearRole": ("follower", None)},
    )
    return architecture


def two_legacy_architecture() -> Architecture:
    pattern = railcab.distance_coordination_pattern()
    architecture = Architecture("convoy2")
    architecture.add_legacy("leader")
    architecture.add_legacy("follower")
    architecture.instantiate(
        pattern,
        {"frontRole": ("leader", None), "rearRole": ("follower", None)},
    )
    return architecture


class TestSingleLegacyIntegration:
    def test_correct_component_passes(self):
        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
            labelers={"follower": railcab.rear_state_labeler},
        )
        assert isinstance(report, IntegrationReport)
        assert report.ok
        assert report.findings() == []
        assert report.placements["follower"].verdict is Verdict.PROVEN

    def test_faulty_component_fails_with_finding(self):
        report = integrate(
            convoy_architecture(),
            {"follower": railcab.faulty_rear_shuttle()},
            labelers={"follower": railcab.rear_state_labeler},
        )
        assert not report.ok
        assert any("follower" in finding for finding in report.findings())
        assert report.placements["follower"].verdict is Verdict.REAL_VIOLATION

    def test_architecture_check_included(self):
        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle()},
            labelers={"follower": railcab.rear_state_labeler},
        )
        assert report.architecture.pattern_results["DistanceCoordination"].ok
        assert "leader.front" in report.architecture.port_results

    def test_missing_component_reported(self):
        report = integrate(convoy_architecture(), {})
        assert not report.ok
        assert report.skipped_placements == ("follower",)
        assert any("no executable component" in finding for finding in report.findings())

    def test_interface_mismatch_rejected(self):
        from repro.automata import Automaton
        from repro.legacy import LegacyComponent

        wrong = LegacyComponent(
            Automaton(inputs={"x"}, outputs={"y"},
                      transitions=[("s", (), (), "s")], initial=["s"]),
            name="wrong",
        )
        with pytest.raises(SynthesisError, match="interface"):
            integrate(convoy_architecture(), {"follower": wrong})

    def test_extra_properties_checked(self):
        from repro.logic import parse

        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
            labelers={"follower": railcab.rear_state_labeler},
            extra_properties={
                "follower": [parse("AG (rearRole.convoy -> frontRole.convoy)")]
            },
        )
        assert report.ok

    def test_violated_extra_property_detected(self):
        from repro.logic import parse

        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
            labelers={"follower": railcab.rear_state_labeler},
            extra_properties={"follower": [parse("AG not rearRole.convoy")]},
        )
        assert not report.ok


class TestMultiLegacyIntegration:
    def test_two_correct_legacy_components(self):
        report = integrate(
            two_legacy_architecture(),
            {
                "leader": railcab.correct_front_shuttle(),
                "follower": railcab.correct_rear_shuttle(convoy_ticks=1),
            },
            labelers={
                "leader": railcab.front_state_labeler,
                "follower": railcab.rear_state_labeler,
            },
        )
        assert report.joint is not None
        assert report.joint.verdict is Verdict.PROVEN
        assert report.ok

    def test_faulty_pair_detected(self):
        report = integrate(
            two_legacy_architecture(),
            {
                "leader": railcab.forgetful_front_shuttle(),
                "follower": railcab.correct_rear_shuttle(convoy_ticks=1),
            },
            labelers={
                "leader": railcab.front_state_labeler,
                "follower": railcab.rear_state_labeler,
            },
        )
        assert report.joint is not None
        assert report.joint.verdict is Verdict.REAL_VIOLATION
        assert not report.ok
        assert any("joint" in finding for finding in report.findings())

    def test_missing_component_in_multi_mode(self):
        report = integrate(
            two_legacy_architecture(),
            {"leader": railcab.correct_front_shuttle()},
            labelers={"leader": railcab.front_state_labeler},
        )
        assert not report.ok
        assert "follower" in report.skipped_placements


class TestRequireHelpers:
    def test_require_proven_passes_through(self):
        from repro.synthesis import IntegrationSynthesizer

        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        assert result.require_proven() is result

    def test_require_proven_raises_on_violation(self):
        from repro.synthesis import IntegrationSynthesizer

        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        with pytest.raises(SynthesisError, match="violates the requirements"):
            result.require_proven()

    def test_require_proven_raises_budget_error(self):
        from repro.errors import BudgetExceededError
        from repro.synthesis import IntegrationSynthesizer

        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            settings=SynthesisSettings(max_iterations=1),
        ).run()
        with pytest.raises(BudgetExceededError):
            result.require_proven()

    def test_multi_require_proven(self):
        from repro.synthesis import MultiLegacySynthesizer

        result = MultiLegacySynthesizer(
            None,
            [railcab.forgetful_front_shuttle(), railcab.correct_rear_shuttle()],
            railcab.PATTERN_CONSTRAINT,
            labelers={
                "frontShuttle": railcab.front_state_labeler,
                "rearShuttle": railcab.rear_state_labeler,
            },
        ).run()
        with pytest.raises(SynthesisError):
            result.require_proven()

    def test_report_require_ok(self):
        report = integrate(
            convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=1)},
            labelers={"follower": railcab.rear_state_labeler},
        )
        assert report.require_ok() is report
        failing = integrate(
            convoy_architecture(),
            {"follower": railcab.faulty_rear_shuttle()},
            labelers={"follower": railcab.rear_state_labeler},
        )
        with pytest.raises(SynthesisError, match="integration failed"):
            failing.require_ok()


class TestStableFacade:
    """The package root re-exports the stable surface (and says so)."""

    STABLE = (
        "integrate",
        "IntegrationReport",
        "SynthesisSettings",
        "IntegrationSynthesizer",
        "SynthesisResult",
        "IterationRecord",
        "Verdict",
        "MultiLegacySynthesizer",
        "result_to_dict",
        "ReproError",
        "SynthesisError",
        "CompositionError",
    )

    def test_stable_names_are_in_all_and_resolve(self):
        import repro

        for name in self.STABLE:
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None, name

    def test_facade_objects_are_the_deep_objects(self):
        import repro
        import repro.synthesis as synthesis

        assert repro.SynthesisSettings is synthesis.SynthesisSettings
        assert repro.IntegrationSynthesizer is synthesis.IntegrationSynthesizer
        assert repro.result_to_dict is synthesis.result_to_dict
