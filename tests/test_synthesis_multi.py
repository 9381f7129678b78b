"""Tests for the multi-legacy extension (§7 of the paper)."""

import pytest

from repro import railcab
from repro.automata import Automaton, compose
from repro.errors import NotCompositionalError, SynthesisError
from repro.legacy import LegacyComponent
from repro.logic import ModelChecker, parse
from repro.synthesis import MultiLegacySynthesizer, SynthesisSettings, Verdict

LABELERS = {
    "frontShuttle": railcab.front_state_labeler,
    "rearShuttle": railcab.rear_state_labeler,
}


def build(front, rear, **kwargs):
    return MultiLegacySynthesizer(
        None,
        [front, rear],
        railcab.PATTERN_CONSTRAINT,
        labelers=LABELERS,
        **kwargs,
    )


class TestTwoLegacyShuttles:
    def test_two_correct_shuttles_proven(self):
        result = build(
            railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)
        ).run()
        assert result.verdict is Verdict.PROVEN
        assert result.proven
        # Both models were improved in parallel.
        assert len(result.final_models["frontShuttle"].states) >= 3
        assert len(result.final_models["rearShuttle"].states) >= 4

    def test_ground_truth_for_two_correct_shuttles(self):
        front = railcab.correct_front_shuttle()._hidden.with_labels(
            railcab.front_state_labeler
        )
        rear = railcab.correct_rear_shuttle(convoy_ticks=1)._hidden.with_labels(
            railcab.rear_state_labeler
        )
        truth = compose(front, rear)
        checker = ModelChecker(truth)
        assert checker.holds(railcab.PATTERN_CONSTRAINT)
        assert checker.holds(parse("AG not deadlock"))

    def test_forgetful_front_is_a_real_violation(self):
        result = build(
            railcab.forgetful_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)
        ).run()
        assert result.verdict is Verdict.REAL_VIOLATION
        assert result.violation_kind == "property"
        assert result.violation_witness is not None

    def test_forgetful_front_ground_truth(self):
        front = railcab.forgetful_front_shuttle()._hidden.with_labels(
            railcab.front_state_labeler
        )
        rear = railcab.correct_rear_shuttle(convoy_ticks=1)._hidden.with_labels(
            railcab.rear_state_labeler
        )
        truth = compose(front, rear)
        assert not ModelChecker(truth).holds(railcab.PATTERN_CONSTRAINT)

    def test_faulty_rear_against_legacy_front(self):
        result = build(
            railcab.correct_front_shuttle(), railcab.faulty_rear_shuttle()
        ).run()
        assert result.verdict is Verdict.REAL_VIOLATION

    def test_partial_learning_holds_for_both(self):
        front = railcab.correct_front_shuttle()
        rear = railcab.overbuilt_rear_shuttle(extra_states=10)
        result = build(front, rear).run()
        assert result.verdict is Verdict.PROVEN
        assert len(result.final_models["rearShuttle"].states) < rear.state_bound

    def test_knowledge_monotone_across_iterations(self):
        result = build(
            railcab.correct_front_shuttle(), railcab.correct_rear_shuttle()
        ).run()
        totals = [
            record.model_states + record.model_transitions + record.model_refusals
            for record in result.iterations
        ]
        assert totals == sorted(totals)


class TestWithModeledContext:
    def test_single_legacy_with_context_matches_single_loop(self):
        result = MultiLegacySynthesizer(
            railcab.front_role_automaton(),
            [railcab.faulty_rear_shuttle()],
            railcab.PATTERN_CONSTRAINT,
            labelers={"rearShuttle": railcab.rear_state_labeler},
        ).run()
        assert result.verdict is Verdict.REAL_VIOLATION

    def test_single_correct_legacy_with_context_proven(self):
        result = MultiLegacySynthesizer(
            railcab.front_role_automaton(),
            [railcab.correct_rear_shuttle()],
            railcab.PATTERN_CONSTRAINT,
            labelers={"rearShuttle": railcab.rear_state_labeler},
        ).run()
        assert result.verdict is Verdict.PROVEN


class TestValidation:
    def test_needs_components(self):
        with pytest.raises(SynthesisError, match="at least one"):
            MultiLegacySynthesizer(None, [], railcab.PATTERN_CONSTRAINT)

    def test_unique_names(self):
        with pytest.raises(SynthesisError, match="unique"):
            MultiLegacySynthesizer(
                None,
                [railcab.correct_rear_shuttle(), railcab.correct_rear_shuttle()],
                railcab.PATTERN_CONSTRAINT,
            )

    def test_composability_enforced(self):
        clashing = LegacyComponent(
            Automaton(
                inputs=railcab.FRONT_TO_REAR,
                outputs=railcab.REAR_TO_FRONT,
                transitions=[("s", (), (), "s")],
                initial=["s"],
            ),
            name="clash",
        )
        with pytest.raises(SynthesisError, match="not composable"):
            MultiLegacySynthesizer(
                None,
                [railcab.correct_rear_shuttle(), clashing],
                railcab.PATTERN_CONSTRAINT,
            )

    def test_property_must_be_compositional(self):
        with pytest.raises(NotCompositionalError):
            MultiLegacySynthesizer(
                None,
                [railcab.correct_rear_shuttle()],
                parse("EF rearRole.convoy"),
            )

    def test_budget_exceeded(self):
        result = build(
            railcab.correct_front_shuttle(),
            railcab.correct_rear_shuttle(),
            settings=SynthesisSettings(max_iterations=1),
        ).run()
        assert result.verdict is Verdict.BUDGET_EXCEEDED


class TestDeadlockAcrossComponents:
    def test_mutual_deadlock_is_real(self):
        # A front that never answers: after the proposal both shuttles
        # wait forever — but both still take idle steps, so no deadlock;
        # instead build a front that halts entirely after the proposal.
        halting_front = LegacyComponent(
            Automaton(
                inputs=railcab.REAR_TO_FRONT,
                outputs=railcab.FRONT_TO_REAR,
                transitions=[
                    ("start", (), (), "start"),
                    ("start", ("convoyProposal",), (), "halted"),
                    # "halted" reacts to nothing at all.
                ],
                initial=["start"],
                name="frontShuttle(halting)",
            ),
            name="frontShuttle",
        )
        result = build(halting_front, railcab.correct_rear_shuttle()).run()
        assert result.verdict is Verdict.REAL_VIOLATION
        assert result.violation_kind == "deadlock"
