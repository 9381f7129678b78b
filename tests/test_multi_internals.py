"""White-box tests for the multi-legacy loop's internals."""

import pytest

from repro import railcab
from repro.automata import Automaton, Interaction, chaotic_closure, compose_all
from repro.legacy import LegacyComponent
from repro.logic import parse
from repro.synthesis import MultiLegacySynthesizer
from repro.synthesis.driver import _IterationScratch as _MultiScratch
from repro.testing import TestCase


def make_synthesizer(context=None, components=None, property_text="AG not deadlock"):
    if components is None:
        components = [
            railcab.correct_front_shuttle(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
        ]
    return MultiLegacySynthesizer(
        context,
        components,
        parse(property_text)
        if property_text != "pattern"
        else railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
    )


def closure_product(synthesizer):
    """``context ∥ chaos(M_1) ∥ …`` of the synthesizer's initial models."""
    closures = [
        chaotic_closure(slot.model, slot.universe, deterministic_implementation=True)
        for slot in synthesizer.slots
    ]
    context = [synthesizer.context] if synthesizer.context is not None else []
    return compose_all([*context, *closures], semantics="open")


class TestComposition:
    def test_slots_have_increasing_indices(self):
        synthesizer = make_synthesizer()
        assert [slot.index for slot in synthesizer.slots] == [0, 1]

    def test_context_shifts_indices(self):
        synthesizer = MultiLegacySynthesizer(
            railcab.front_role_automaton(),
            [railcab.correct_rear_shuttle()],
            railcab.PATTERN_CONSTRAINT,
            labelers={"rearShuttle": railcab.rear_state_labeler},
        )
        assert [slot.index for slot in synthesizer.slots] == [1]

    def test_compose_without_context_is_pairwise(self):
        synthesizer = make_synthesizer()
        composed = closure_product(synthesizer)
        state = next(iter(composed.initial))
        assert isinstance(state, tuple) and len(state) == 2

    def test_compose_with_context_is_three_way(self):
        worker1 = LegacyComponent(
            Automaton(inputs={"t1"}, outputs={"d1"},
                      transitions=[("i", (), (), "i"), ("i", ("t1",), ("d1",), "i")],
                      initial=["i"]),
            name="w1",
        )
        worker2 = LegacyComponent(
            Automaton(inputs={"t2"}, outputs={"d2"},
                      transitions=[("i", (), (), "i"), ("i", ("t2",), ("d2",), "i")],
                      initial=["i"]),
            name="w2",
        )
        context = Automaton(
            inputs={"d1", "d2"}, outputs={"t1", "t2"},
            transitions=[("c", (), (), "c")], initial=["c"],
        )
        synthesizer = MultiLegacySynthesizer(
            context, [worker1, worker2], parse("AG true"),
        )
        composed = closure_product(synthesizer)
        state = next(iter(composed.initial))
        assert len(state) == 3


class TestJointStepMatcher:
    def make(self):
        return make_synthesizer()

    def test_served_pair_found(self):
        synthesizer = self.make()
        # Front reacts to ∅ by... idle; rear reacts to ∅ by proposing:
        # the proposal must be consumed by the front — table entries where
        # front consumes the proposal exist → a joint step exists.
        tables = [
            {  # frontShuttle reactions at noConvoy::default
                frozenset(): frozenset(),  # idle
                frozenset({"convoyProposal"}): frozenset(),
                frozenset({"breakConvoyProposal"}): None,
            },
            {  # rearShuttle reactions at noConvoy::default
                frozenset(): frozenset({"convoyProposal"}),
                frozenset({"startConvoy"}): None,
            },
        ]
        assert synthesizer._joint_step_exists(None, tables)

    def test_no_joint_step_when_outputs_unconsumed(self):
        synthesizer = self.make()
        tables = [
            {frozenset({"convoyProposal"}): None},  # front deaf
            {frozenset(): frozenset({"convoyProposal"})},  # rear insists
        ]
        assert not synthesizer._joint_step_exists(None, tables)

    def test_idle_idle_counts_as_a_step(self):
        synthesizer = self.make()
        tables = [
            {frozenset(): frozenset()},
            {frozenset(): frozenset()},
        ]
        assert synthesizer._joint_step_exists(None, tables)

    def test_all_blocked_means_deadlock(self):
        synthesizer = self.make()
        tables = [
            {frozenset(): None},
            {frozenset(): None},
        ]
        assert not synthesizer._joint_step_exists(None, tables)

    def test_context_offer_participates(self):
        worker = LegacyComponent(
            Automaton(inputs={"task"}, outputs={"done"},
                      transitions=[("i", ("task",), (), "busy"),
                                   ("i", (), (), "i"),
                                   ("busy", (), ("done",), "i")],
                      initial=["i"]),
            name="w",
        )
        context = Automaton(
            inputs={"done"}, outputs={"task"},
            transitions=[("c", (), ("task",), "w"), ("w", ("done",), (), "c")],
            initial=["c"],
        )
        synthesizer = MultiLegacySynthesizer(context, [worker], parse("AG true"))
        # Context in state "c" offers (∅, task); worker consumes task.
        tables = [{frozenset({"task"}): frozenset(), frozenset(): frozenset()}]
        assert synthesizer._joint_step_exists("c", tables)
        # Context in "w" offers only (done, ∅): the worker must produce
        # done; with these reactions it cannot.
        assert not synthesizer._joint_step_exists("w", tables)

    def test_stuck_context_never_steps(self):
        context = Automaton(
            inputs={"done"}, outputs={"task"},
            transitions=[("c", (), ("task",), "dead")],
            initial=["c"],
        )
        worker = LegacyComponent(
            Automaton(inputs={"task"}, outputs={"done"},
                      transitions=[("i", (), (), "i"), ("i", ("task",), ("done",), "i")],
                      initial=["i"]),
            name="w",
        )
        synthesizer = MultiLegacySynthesizer(context, [worker], parse("AG true"))
        tables = [{frozenset(): frozenset()}]
        assert not synthesizer._joint_step_exists("dead", tables)


class TestReactionTable:
    def test_table_probes_every_input_set(self):
        synthesizer = make_synthesizer(
            components=[
                railcab.correct_front_shuttle(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
            ]
        )
        slot = synthesizer.slots[1]  # the rear shuttle
        scratch = _MultiScratch()
        prefix = TestCase(name="empty", steps=())
        table = synthesizer._reaction_table(slot, prefix, scratch)
        expected_inputs = {interaction.inputs for interaction in slot.universe}
        assert set(table) == expected_inputs
        assert scratch.tests == len(expected_inputs)
        # The rear shuttle at its initial state proposes on no input:
        assert table[frozenset()] == frozenset({"convoyProposal"})
        # …and refuses a rejection it never asked about:
        assert table[frozenset({"convoyProposalRejected"})] is None

    def test_table_learns_into_the_model(self):
        synthesizer = make_synthesizer()
        slot = synthesizer.slots[1]
        before = slot.model.knowledge_size()
        synthesizer._reaction_table(slot, TestCase(name="empty", steps=()), _MultiScratch())
        assert slot.model.knowledge_size() > before
