"""Integration tests for the full verify → test → learn loop (§4)."""

import pytest

from repro import railcab
from repro.automata import Automaton, is_chaos_state
from repro.errors import NotCompositionalError, SynthesisError
from repro.legacy import LegacyComponent
from repro.logic import parse
from repro.synthesis import (
    IntegrationSynthesizer,
    SynthesisSettings,
    Verdict,
    render_counterexample_listing,
    render_iteration_table,
    summarize,
)
from repro.testing import TestVerdict


def client() -> Automaton:
    return Automaton(
        inputs={"pong"},
        outputs={"ping"},
        transitions=[
            ("idle", (), (), "idle"),
            ("idle", (), ("ping",), "waiting"),
            ("waiting", ("pong",), (), "idle"),
            ("waiting", (), (), "waiting"),
        ],
        initial=["idle"],
        labels={"idle": {"client.idle"}, "waiting": {"client.waiting"}},
        name="client",
    )


def good_server() -> LegacyComponent:
    hidden = Automaton(
        inputs={"ping"},
        outputs={"pong"},
        transitions=[
            ("ready", ("ping",), (), "busy"),
            ("ready", (), (), "ready"),
            ("busy", (), ("pong",), "ready"),
        ],
        initial=["ready"],
        name="server",
    )
    return LegacyComponent(hidden, name="server")


def halting_server() -> LegacyComponent:
    hidden = Automaton(
        inputs={"ping"},
        outputs={"pong"},
        transitions=[
            ("ready", ("ping",), (), "busy"),
            ("ready", (), (), "ready"),
            ("busy", (), ("pong",), "dead"),
            # "dead" reacts to nothing: the component halts after one job.
        ],
        initial=["ready"],
        name="server",
    )
    return LegacyComponent(hidden, name="server")


RESPONSE = parse("AG (client.waiting -> AF[1,3] client.idle)")


class TestProvenIntegration:
    def test_good_server_is_proven(self):
        result = IntegrationSynthesizer(
            client(), good_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        assert result.verdict is Verdict.PROVEN
        assert result.proven
        assert result.violation_witness is None
        final = result.iterations[-1]
        assert final.property_holds and final.deadlock_free

    def test_correct_shuttle_is_proven(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        assert result.verdict is Verdict.PROVEN

    def test_proof_without_learning_whole_component(self):
        component = railcab.overbuilt_rear_shuttle(extra_states=10)
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            component,
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        assert result.verdict is Verdict.PROVEN
        # Claim C2: far fewer states learned than the component has.
        assert result.learned_states < component.state_bound

    def test_knowledge_grows_monotonically(self):
        result = IntegrationSynthesizer(
            client(), good_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        sizes = [
            record.model_transitions + record.model_refusals for record in result.iterations
        ]
        assert sizes == sorted(sizes)

    def test_final_model_is_observation_conforming(self):
        result = IntegrationSynthesizer(
            client(), good_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        hidden = good_server()._hidden
        for transition in result.final_model.transitions:
            assert transition in hidden.transitions


class TestRealViolations:
    def test_faulty_shuttle_fast_conflict_in_two_iterations(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        assert result.verdict is Verdict.REAL_VIOLATION
        assert result.violation_kind == "property"
        assert result.iteration_count == 2
        assert result.iterations[-1].fast_conflict

    def test_fast_conflict_witness_stays_in_learned_part(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        witness = result.violation_witness
        assert witness is not None
        assert not any(is_chaos_state(state[1]) for state in witness.states)

    def test_fast_conflict_needs_no_test_in_final_iteration(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        assert result.iterations[-1].tests_executed == 0

    def test_fast_conflict_disabled_still_finds_violation(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            fast_conflict=False,
        ).run()
        assert result.verdict is Verdict.REAL_VIOLATION
        # Without the shortcut the final counterexample is confirmed by a test.
        assert result.iterations[-1].test_verdict is TestVerdict.CONFIRMED

    def test_halting_server_yields_real_deadlock(self):
        result = IntegrationSynthesizer(
            client(), halting_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        assert result.verdict is Verdict.REAL_VIOLATION
        assert result.violation_kind == "deadlock"
        witness = result.violation_witness
        assert witness is not None

    def test_no_false_negatives_claim_c1(self):
        # Every REAL_VIOLATION verdict for a property violation comes with
        # a witness whose legacy projection the real component executes.
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        witness = result.violation_witness
        component = railcab.faulty_rear_shuttle()
        component.reset()
        for interaction, _ in witness.steps:
            outcome = component.step(interaction.inputs & component.inputs)
            assert not outcome.blocked
            assert outcome.outputs == interaction.outputs & component.outputs


class TestConfigurationVariants:
    def test_conservative_refusal_mode_also_converges(self):
        result = IntegrationSynthesizer(
            client(),
            good_server(),
            RESPONSE,
            labeler=lambda s: {f"srv.{s}"},
            refusal_mode="conservative",
        ).run()
        assert result.verdict is Verdict.PROVEN

    def test_conservative_mode_needs_more_iterations(self):
        deterministic = IntegrationSynthesizer(
            client(), good_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        conservative = IntegrationSynthesizer(
            client(),
            good_server(),
            RESPONSE,
            labeler=lambda s: {f"srv.{s}"},
            refusal_mode="conservative",
        ).run()
        assert conservative.iteration_count >= deterministic.iteration_count

    def test_budget_exceeded(self):
        result = IntegrationSynthesizer(
            client(),
            good_server(),
            RESPONSE,
            labeler=lambda s: {f"srv.{s}"},
            settings=SynthesisSettings(max_iterations=1),
        ).run()
        assert result.verdict is Verdict.BUDGET_EXCEEDED

    def test_without_labeler_deadlock_checking_still_works(self):
        result = IntegrationSynthesizer(client(), good_server(), parse("AG not deadlock")).run()
        assert result.verdict is Verdict.PROVEN

    def test_non_compositional_property_rejected(self):
        with pytest.raises(NotCompositionalError):
            IntegrationSynthesizer(client(), good_server(), parse("EF client.idle"))

    def test_overlapping_signals_rejected(self):
        bad_context = Automaton(inputs={"ping"}, outputs=(), initial=["s"])
        with pytest.raises(SynthesisError, match="not composable"):
            IntegrationSynthesizer(bad_context, good_server(), parse("AG true"))


class TestReporting:
    def test_summary_mentions_verdict(self):
        result = IntegrationSynthesizer(
            client(), good_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        text = summarize(result)
        assert "proven" in text
        assert "iterations" in text

    def test_iteration_table_has_row_per_iteration(self):
        result = IntegrationSynthesizer(
            client(), good_server(), RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        table = render_iteration_table(result)
        assert len(table.splitlines()) == result.iteration_count + 2

    def test_listing_rendering(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        listing = render_counterexample_listing(
            result.violation_witness,
            legacy_inputs=railcab.FRONT_TO_REAR,
            legacy_outputs=railcab.REAR_TO_FRONT,
        )
        assert "shuttle2.convoyProposal!, shuttle1.convoyProposal?" in listing
        assert "shuttle2.convoy" in listing


class TestBlackBoxDiscipline:
    def test_loop_only_probes_states_during_replay(self):
        component = good_server()
        result = IntegrationSynthesizer(
            client(), component, RESPONSE, labeler=lambda s: {f"srv.{s}"}
        ).run()
        assert result.verdict is Verdict.PROVEN
        # Every state probe happened during (offline) replay: the probe
        # effect never became active on the live component.
        assert not component.probe_effect_active
        assert component.state_probes > 0
        assert component.resets >= result.total_tests
