"""Soundness oracles on the runs whose records depend on deadlock probing.

Two of the paper's claims, checked on the two-legacy convoy (correct and
forgetful front) and on the joint factory scenarios among seeds 0–39:

* **Learned-model fidelity.**  Every learned transition of every final
  model is a transition of the hidden automaton, and every learned
  refusal is not enabled there — learning only merges observations.
* **Lemma 7.**  The abstractions only get more precise:
  ``chaos(M^{i+1}) ⊑ chaos(M^i)`` for every slot, where ``M^i`` is the
  final model of the same run stopped after ``i`` iterations (``M^0``
  the trivial initial model).
"""

from __future__ import annotations

import pytest

from repro import railcab
from repro.automata import (
    CHAOS_PROPOSITION,
    chaos_tolerant_labels,
    chaotic_closure,
    refines,
)
from repro.integration import integrate
from repro.legacy import interface_of
from repro.legacy.remote import rehost_payload
from repro.persistence import automaton_from_dict
from repro.synthesis import MultiLegacySynthesizer, SynthesisSettings, initial_model
from repro.testing.faults import FAULT_SEED_ENV
from repro.testing.scenario import generate_scenario

#: Factory seeds below 40 whose specs integrate several slots jointly.
JOINT_SEEDS = [seed for seed in range(40) if generate_scenario(seed).spec.joint]

FRONTS = {
    "correct": railcab.correct_front_shuttle,
    "forgetful": railcab.forgetful_front_shuttle,
}


@pytest.fixture(autouse=True)
def fault_free(monkeypatch):
    # The oracles judge what fault-free learning merges.
    monkeypatch.delenv(FAULT_SEED_ENV, raising=False)


def convoy_components(front: str):
    return [FRONTS[front](), railcab.correct_rear_shuttle(convoy_ticks=2)]


def convoy_run(front: str, max_iterations: int | None = None):
    """The two-legacy convoy: ``(result, {name: (universe, M^0)})``."""
    synthesizer = MultiLegacySynthesizer(
        None,
        convoy_components(front),
        railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
        settings=SynthesisSettings(max_iterations=max_iterations),
    )
    slots = {slot.name: (slot.universe, slot.initial) for slot in synthesizer.slots}
    return synthesizer.run(), slots


def joint_run(seed: int, max_iterations: int | None = None):
    """The joint run of factory seed ``seed``: ``(result, {name: (universe, M^0)})``."""
    scenario = generate_scenario(seed)
    report = integrate(
        scenario.architecture,
        scenario.components,
        settings=SynthesisSettings(max_iterations=max_iterations),
    )
    slots = {}
    for component in scenario.components.values():
        interface = interface_of(component)
        slots[component.name] = (interface.universe(), initial_model(interface))
    return report.joint, slots


def convoy_hidden(front: str) -> dict:
    return {
        component.name: automaton_from_dict(rehost_payload(component)["automaton"])
        for component in convoy_components(front)
    }


def joint_hidden(seed: int) -> dict:
    scenario = generate_scenario(seed)
    by_slot = {slot.name: slot.hidden for slot in scenario.spec.slots}
    return {
        component.name: automaton_from_dict(by_slot[name])
        for name, component in scenario.components.items()
    }


RUNS = {
    **{f"convoy-{front}": (lambda front=front: convoy_run(front)) for front in FRONTS},
    **{f"seed{seed}": (lambda seed=seed: joint_run(seed)) for seed in JOINT_SEEDS},
}
HIDDEN = {
    **{f"convoy-{front}": (lambda front=front: convoy_hidden(front)) for front in FRONTS},
    **{f"seed{seed}": (lambda seed=seed: joint_hidden(seed)) for seed in JOINT_SEEDS},
}
STOPPED = {
    **{f"convoy-{front}": (lambda i, front=front: convoy_run(front, i)) for front in FRONTS},
    **{f"seed{seed}": (lambda i, seed=seed: joint_run(seed, i)) for seed in JOINT_SEEDS},
}


def test_oracles_see_learning():
    assert len(JOINT_SEEDS) >= 3
    results = {name: build()[0] for name, build in RUNS.items()}
    assert sum(result.iteration_count > 1 for result in results.values()) >= 3
    for front in FRONTS:  # both convoy shuttles learn something
        assert all(model.transitions for model in results[f"convoy-{front}"].final_models.values())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_learned_models_are_faithful_to_the_hidden_automata(name):
    result, _ = RUNS[name]()
    hidden = HIDDEN[name]()
    assert set(result.final_models) == set(hidden)
    for component, model in result.final_models.items():
        plant = hidden[component]
        edges = {(t.source, t.interaction, t.target) for t in plant.transitions}
        for transition in model.transitions:
            assert (transition.source, transition.interaction, transition.target) in edges, (
                f"{component}: learned {transition} is not in the hidden automaton"
            )
        for refusal in model.refusals:
            enabled = {t.interaction for t in plant.transitions_from(refusal.state)}
            assert refusal.interaction not in enabled, (
                f"{component}: refused {refusal.interaction} at {refusal.state!r} is enabled"
            )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_lemma_7_each_iteration_refines_the_last(name):
    result, slots = RUNS[name]()
    previous = {
        component: chaotic_closure(start, universe) for component, (universe, start) in slots.items()
    }
    for stop in range(1, result.iteration_count + 1):
        stopped, _ = STOPPED[name](stop)
        for component, model in stopped.final_models.items():
            universe = slots[component][0]
            closure = chaotic_closure(model, universe)
            assert refines(
                closure,
                previous[component],
                label_match=chaos_tolerant_labels(CHAOS_PROPOSITION),
                universe=universe,
            ), f"{component}: chaos(M^{stop}) does not refine chaos(M^{stop - 1})"
            previous[component] = closure
