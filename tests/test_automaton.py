"""Unit tests for the automaton model (Definition 1, §2.1 labeling)."""

import pytest

from repro.automata import Automaton, Interaction, Transition
from repro.errors import ModelError


def simple() -> Automaton:
    return Automaton(
        inputs={"a"},
        outputs={"b"},
        transitions=[
            ("s0", ("a",), (), "s1"),
            ("s1", (), ("b",), "s0"),
        ],
        initial=["s0"],
        labels={"s0": {"p"}},
        name="simple",
    )


class TestConstruction:
    def test_states_inferred_from_transitions(self):
        automaton = simple()
        assert automaton.states == frozenset({"s0", "s1"})

    def test_explicit_isolated_state(self):
        automaton = Automaton(states=["lonely"], inputs=(), outputs=(), initial=["lonely"])
        assert automaton.states == frozenset({"lonely"})
        assert automaton.is_deadlock("lonely")

    def test_requires_initial_state(self):
        with pytest.raises(ModelError, match="no initial state"):
            Automaton(inputs=(), outputs=(), transitions=(), initial=())

    def test_rejects_transition_with_unknown_input(self):
        with pytest.raises(ModelError, match="outside I"):
            Automaton(
                inputs={"a"},
                outputs=(),
                transitions=[("s", ("x",), (), "s")],
                initial=["s"],
            )

    def test_rejects_transition_with_unknown_output(self):
        with pytest.raises(ModelError, match="outside O"):
            Automaton(
                inputs=(),
                outputs={"b"},
                transitions=[("s", (), ("y",), "s")],
                initial=["s"],
            )

    def test_rejects_labels_on_unknown_states(self):
        with pytest.raises(ModelError, match="unknown states"):
            Automaton(inputs=(), outputs=(), initial=["s"], labels={"ghost": {"p"}})

    def test_accepts_transition_objects_and_triples(self):
        t = Transition("s", Interaction(["a"], None), "t")
        automaton = Automaton(
            inputs={"a"}, outputs=(), transitions=[t, ("t", Interaction(), "s")], initial=["s"]
        )
        assert len(automaton.transitions) == 2

    def test_rejects_garbage_transition(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            Automaton(inputs=(), outputs=(), transitions=[("just-one",)], initial=["s"])


class TestStructure:
    def test_transitions_from_is_sorted_and_complete(self):
        automaton = simple()
        outgoing = automaton.transitions_from("s0")
        assert len(outgoing) == 1
        assert outgoing[0].target == "s1"

    def test_transitions_from_unknown_state_is_empty(self):
        assert simple().transitions_from("ghost") == ()

    def test_transitions_on(self):
        automaton = simple()
        assert len(automaton.transitions_on("s0", {"a"})) == 1
        assert automaton.transitions_on("s0", ()) == ()

    def test_successors(self):
        assert simple().successors("s0") == frozenset({"s1"})

    def test_enabled(self):
        assert simple().enabled("s1") == frozenset({Interaction(None, ["b"])})

    def test_deadlock_detection(self):
        automaton = Automaton(
            inputs=(), outputs=(), transitions=[("s", (), (), "t")], initial=["s"]
        )
        assert not automaton.is_deadlock("s")
        assert automaton.is_deadlock("t")
        assert automaton.deadlock_states == frozenset({"t"})

    def test_interactions_property(self):
        assert simple().interactions == {
            Interaction(["a"], None),
            Interaction(None, ["b"]),
        }


class TestDeterminism:
    def test_simple_is_deterministic(self):
        assert simple().is_deterministic()
        assert simple().is_strongly_deterministic()

    def test_same_interaction_two_targets_is_nondeterministic(self):
        automaton = Automaton(
            inputs={"a"},
            outputs=(),
            transitions=[("s", ("a",), (), "t"), ("s", ("a",), (), "u")],
            initial=["s"],
        )
        assert not automaton.is_deterministic()
        assert not automaton.is_strongly_deterministic()

    def test_same_inputs_different_outputs_breaks_only_strong_determinism(self):
        automaton = Automaton(
            inputs={"a"},
            outputs={"x", "y"},
            transitions=[("s", ("a",), ("x",), "t"), ("s", ("a",), ("y",), "u")],
            initial=["s"],
        )
        assert automaton.is_deterministic()
        assert not automaton.is_strongly_deterministic()

    def test_multiple_initial_states_are_nondeterministic(self):
        automaton = Automaton(inputs=(), outputs=(), initial=["s", "t"])
        assert not automaton.is_deterministic()


class TestLabels:
    def test_labels_default_to_empty(self):
        assert simple().labels("s1") == frozenset()

    def test_labels_lookup(self):
        assert simple().labels("s0") == frozenset({"p"})

    def test_labels_unknown_state_raises(self):
        with pytest.raises(ModelError, match="no state"):
            simple().labels("ghost")

    def test_label_map_covers_all_states(self):
        assert set(simple().label_map) == {"s0", "s1"}

    def test_propositions(self):
        assert simple().propositions == frozenset({"p"})

    def test_with_labels(self):
        relabeled = simple().with_labels(lambda state: {f"at.{state}"})
        assert relabeled.labels("s1") == frozenset({"at.s1"})


class TestRebuilding:
    def test_replace_name(self):
        assert simple().replace(name="other").name == "other"

    def test_replace_keeps_other_fields(self):
        replaced = simple().replace(name="other")
        assert replaced.transitions == simple().transitions
        assert replaced.label_map == simple().label_map

    def test_map_states(self):
        renamed = simple().map_states(lambda s: f"x-{s}")
        assert renamed.initial == frozenset({"x-s0"})
        assert renamed.labels("x-s0") == frozenset({"p"})
        assert len(renamed.transitions) == 2

    def test_map_states_rejects_merging(self):
        with pytest.raises(ModelError, match="not injective"):
            simple().map_states(lambda s: "same")

    def test_equality_ignores_name(self):
        assert simple() == simple().replace(name="other")

    def test_equality_considers_labels(self):
        assert simple() != simple().replace(labels={})

    def test_hashable(self):
        assert len({simple(), simple()}) == 1

    def test_repr_contains_counts(self):
        assert "|S|=2" in repr(simple())


class TestTransitionObject:
    def test_equality_and_hash(self):
        a = Transition("s", Interaction(["a"], None), "t")
        b = Transition("s", Interaction(["a"], None), "t")
        assert a == b and hash(a) == hash(b)

    def test_inputs_outputs_shortcuts(self):
        t = Transition("s", Interaction(["a"], ["b"]), "t")
        assert t.inputs == frozenset({"a"})
        assert t.outputs == frozenset({"b"})


class _TiedState:
    """Distinct hashable states that share one repr (worst-case ties)."""

    __slots__ = ("ident",)

    def __init__(self, ident: int):
        self.ident = ident

    def __repr__(self) -> str:
        return "tied"

    def __hash__(self) -> int:
        return hash(("tied", self.ident))

    def __eq__(self, other) -> bool:
        return isinstance(other, _TiedState) and self.ident == other.ident


def test_ordered_transitions_do_not_leak_dict_insertion_order():
    """Equal-repr sources must not fall back to ``by_source`` insertion order."""
    a, b = _TiedState(0), _TiedState(1)
    edges = {
        a: (
            Transition(a, Interaction((), ("x",)), b),
            Transition(a, Interaction((), ()), a),
        ),
        b: (Transition(b, Interaction(("y",), ()), a),),
    }
    edges = {
        source: tuple(sorted(slice_, key=Transition.sort_key))
        for source, slice_ in edges.items()
    }

    def assemble(by_source):
        return Automaton._assemble(
            states=frozenset([a, b]),
            inputs=frozenset({"y"}),
            outputs=frozenset({"x"}),
            by_source=by_source,
            transition_count=3,
            initial=[a],
            labels={},
            name="tied",
        )

    forward = assemble(dict(edges))
    backward = assemble(dict(reversed(list(edges.items()))))
    assert forward.ordered_transitions == backward.ordered_transitions
    rebuilt = Automaton(
        states=[a, b],
        inputs={"y"},
        outputs={"x"},
        transitions=forward.ordered_transitions,
        initial=[a],
        name="tied",
    )
    assert forward.ordered_transitions == rebuilt.ordered_transitions
