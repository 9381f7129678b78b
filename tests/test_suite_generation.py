"""Tests for model-based test-suite generation and the audit export."""

import json

import pytest

from repro import railcab
from repro.automata import Automaton, IncompleteAutomaton, Interaction
from repro.errors import ModelError
from repro.legacy import LegacyComponent
from repro.synthesis import IntegrationSynthesizer, Verdict, result_to_dict
from repro.testing import TestVerdict, generate_suite, run_suite


def server_model() -> Automaton:
    return Automaton(
        inputs={"ping"},
        outputs={"pong"},
        transitions=[
            ("ready", ("ping",), (), "busy"),
            ("ready", (), (), "ready"),
            ("busy", (), ("pong",), "ready"),
        ],
        initial=["ready"],
        name="serverModel",
    )


def server_component() -> LegacyComponent:
    return LegacyComponent(server_model().replace(name="server"), name="server")


def broken_component() -> LegacyComponent:
    hidden = Automaton(
        inputs={"ping"},
        outputs={"pong"},
        transitions=[
            ("ready", ("ping",), (), "busy"),
            ("ready", (), (), "ready"),
            ("busy", (), (), "ready"),  # silently swallows the pong
        ],
        initial=["ready"],
        name="broken",
    )
    return LegacyComponent(hidden, name="server")


class TestGenerateSuite:
    def test_transition_coverage_covers_everything(self):
        suite = generate_suite(server_model(), coverage="transitions")
        executed = set()
        model = server_model()
        for case in suite:
            state = "ready"
            for step in case.steps:
                transition = model.transitions_on(state, step.inputs)[0]
                executed.add(transition)
                state = transition.target
        assert executed == model.transitions

    def test_state_coverage_reaches_every_state(self):
        suite = generate_suite(server_model(), coverage="states")
        assert len(suite) == 2  # ready (empty case) and busy

    def test_unknown_coverage_rejected(self):
        with pytest.raises(ModelError, match="unknown coverage"):
            generate_suite(server_model(), coverage="branches")

    def test_suite_from_incomplete_automaton(self):
        model = IncompleteAutomaton(
            inputs={"ping"},
            outputs={"pong"},
            transitions=[("ready", ("ping",), (), "busy")],
            initial=["ready"],
            name="learned",
        )
        suite = generate_suite(model)
        assert len(suite) == 1

    def test_suite_from_learned_synthesis_model(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        suite = generate_suite(result.final_model, name="shuttle")
        assert suite
        report = run_suite(railcab.correct_rear_shuttle(), suite, name="shuttle")
        assert report.ok  # learned models are observation-conforming


class TestRunSuite:
    def test_conforming_component_passes(self):
        suite = generate_suite(server_model())
        report = run_suite(server_component(), suite)
        assert report.ok
        assert report.passed == report.total
        assert "passed" in report.summary()

    def test_regression_detected(self):
        suite = generate_suite(server_model())
        report = run_suite(broken_component(), suite)
        assert not report.ok
        assert report.failed
        assert any(
            execution.verdict in (TestVerdict.DIVERGED, TestVerdict.BLOCKED)
            for execution in report.failed
        )
        assert "FAILED" in report.summary()


class TestResultExport:
    def test_export_is_json_serialisable(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        document = result_to_dict(result)
        text = json.dumps(document)
        assert "real-violation" in text

    def test_export_fields(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        document = result_to_dict(result)
        # The export shape is versioned; consumers key migrations off
        # this exact value (see SCHEMA_VERSION in repro.synthesis.report).
        from repro.synthesis.report import SCHEMA_VERSION

        assert document["schema_version"] == SCHEMA_VERSION == "2.0"
        assert list(document)[0] == "schema_version"
        assert document["verdict"] == "real-violation"
        assert document["violation_kind"] == "property"
        assert document["totals"]["iterations"] == result.iteration_count
        assert len(document["iterations"]) == result.iteration_count
        witness = document["violation_witness"]
        assert witness is not None
        assert witness["start"].startswith("(")

    def test_export_of_proven_run_has_no_witness(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        document = result_to_dict(result)
        assert document["verdict"] == "proven"
        assert document["violation_witness"] is None
