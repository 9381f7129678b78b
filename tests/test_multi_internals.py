"""White-box tests for the n-slot loop's internals: composition,
the joint-step matcher behind deadlock probing, and the confirmation."""

from dataclasses import replace

from repro import railcab
from repro.automata import Automaton, Interaction, Run, chaotic_closure, compose_all
from repro.legacy import LegacyComponent
from repro.logic import parse
from repro.synthesis import MultiLegacySynthesizer, learn_regular, refuse
from repro.synthesis.driver import _IterationScratch
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



FRONT, REAR = 0, 1
COASTING = "noConvoy::default"
WAITING = "noConvoy::wait"
PROPOSE = Interaction((), ("convoyProposal",))
IDLE = Interaction()


def teach(synthesizer, position, *steps):
    """Merge an observed run ``(interaction, target), …`` into a slot's model."""
    slot = synthesizer.slots[position]
    start = next(iter(slot.model.initial))
    slot.model = learn_regular(slot.model, Run(start, steps), labeler=slot.labeler)


def refuse_inputs(synthesizer, position, state, inputs):
    """Refuse every universe interaction consuming ``inputs`` at ``state``."""
    slot = synthesizer.slots[position]
    impossible = [i for i in slot.universe if i.inputs == frozenset(inputs)]
    slot.model = refuse(slot.model, state, impossible)


def expected_outputs(offers):
    return set().union(*(set(expected) for expected in offers.values()))


def worker_and_context():
    """A worker that consumes ``task`` and later answers ``done``."""
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
        transitions=[("c", (), ("task",), "w"), ("w", ("done",), (), "c"),
                     ("s", (), ("task",), "dead")],
        initial=["c"],
    )
    return MultiLegacySynthesizer(context, [worker], parse("AG true"))


class TestJointStepMatcher:
    """``_offers``: the joint steps the rest of the system offers a slot."""

    def test_served_pair_found(self):
        synthesizer = make_synthesizer()
        teach(synthesizer, REAR, (PROPOSE, WAITING))
        offers = synthesizer._offers(FRONT, [COASTING, COASTING], None)
        # The rear's known proposal asks the front to consume it: a step
        # whose other part is known.
        assert offers[frozenset({"convoyProposal"})][frozenset()] is True

    def test_no_joint_step_when_outputs_unconsumed(self):
        synthesizer = make_synthesizer()
        refuse_inputs(synthesizer, FRONT, COASTING, {"convoyProposal"})
        offers = synthesizer._offers(REAR, [COASTING, COASTING], None)
        # A deaf front offers no step in which the rear proposes.
        assert offers
        assert frozenset({"convoyProposal"}) not in expected_outputs(offers)

    def test_idle_idle_counts_as_a_step(self):
        synthesizer = make_synthesizer()
        teach(synthesizer, FRONT, (IDLE, COASTING))
        offers = synthesizer._offers(REAR, [COASTING, WAITING], None)
        assert offers[frozenset()][frozenset()] is True

    def test_all_blocked_means_deadlock(self):
        synthesizer = make_synthesizer()
        for position in (FRONT, REAR):
            for inputs in {i.inputs for i in synthesizer.slots[position].universe}:
                refuse_inputs(synthesizer, position, COASTING, inputs)
        states = [COASTING, COASTING]
        assert synthesizer._offers(FRONT, states, None) == {}
        assert synthesizer._offers(REAR, states, None) == {}
        # Nothing to probe, and everything decided.
        scratch = _IterationScratch()
        assert synthesizer._probe(FRONT, states, None, None, None, scratch) == (False, True)
        assert scratch.tests == 0

    def test_context_offer_participates(self):
        synthesizer = worker_and_context()
        # "c" offers (∅, task): the worker must consume task.
        assert synthesizer._offers(0, ["i"], "c") == {frozenset({"task"}): {frozenset(): True}}
        # "w" offers only (done, ∅): the worker must produce done.
        assert synthesizer._offers(0, ["i"], "w") == {frozenset(): {frozenset({"done"}): True}}

    def test_stuck_context_never_steps(self):
        synthesizer = worker_and_context()
        assert synthesizer._offers(0, ["i"], "dead") == {}


class TestDeadlockConfirmation:
    """``_test_deadlock``: test the prefix on every slot, then probe."""

    @staticmethod
    def deadlock(context_state):
        """A zero-step counterexample ending with the context in ``context_state``."""
        return Run((context_state, None))

    def test_stuck_context_is_real(self):
        synthesizer = worker_and_context()
        scratch = _IterationScratch()
        cex = self.deadlock("dead")
        synthesizer._test_deadlock(cex, scratch)
        assert scratch.real_violation and scratch.violation == cex
        assert scratch.tests == 1  # the prefix; nothing to probe

    def test_served_offer_is_not_real(self):
        synthesizer = worker_and_context()
        scratch = _IterationScratch()
        synthesizer._test_deadlock(self.deadlock("c"), scratch)
        assert not scratch.real_violation
        assert scratch.tests == 2  # the prefix, then one probe
        # The probe's reaction was merged into the worker's model.
        model = synthesizer.slots[0].model
        assert Interaction(("task",), ()) in {t.interaction for t in model.transitions}
        assert len(synthesizer.quarantine) == 0

    def test_inconclusive_probe_is_quarantined_not_real(self, monkeypatch):
        synthesizer = worker_and_context()
        execute = synthesizer.robust.execute

        def flaky(component, case, **kwargs):
            outcome = execute(component, case, **kwargs)
            if case.name.endswith("+probe"):
                return replace(outcome, execution=None, reason="injected")
            return outcome

        monkeypatch.setattr(synthesizer.robust, "execute", flaky)
        scratch = _IterationScratch()
        cex = self.deadlock("c")
        synthesizer._test_deadlock(cex, scratch)
        assert not scratch.real_violation
        assert scratch.inconclusive == 1
        assert synthesizer.quarantine.pending == (cex,)

    def test_probe_asks_only_for_offered_inputs(self):
        synthesizer = make_synthesizer()
        teach(synthesizer, REAR, (PROPOSE, WAITING))
        scratch = _IterationScratch()
        prefix = TestCase(name="empty", steps=())
        served, _ = synthesizer._probe(FRONT, [COASTING, COASTING], None, prefix, None, scratch)
        # The front is asked about the inputs the rear's closure can
        # send it; it consumes the known proposal, completing a step.
        assert served
        assert scratch.tests < len({i.inputs for i in synthesizer.slots[FRONT].universe})
