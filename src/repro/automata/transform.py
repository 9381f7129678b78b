"""Structural transformations: restriction, renaming, completion, minimization.

:func:`restrict` implements the projection ``M|_{I'/O'/𝓛'}`` used in the
proof of Lemma 3 (dropping the I/O signals and propositions a refinement
added on top of its specification).  :func:`minimize` is a Moore-style
partition refinement for deterministic automata, used to canonicalize
learned models and the L* baseline's hypotheses.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..errors import ModelError
from .automaton import Automaton, State, Transition
from .interaction import Interaction, InteractionUniverse

__all__ = ["restrict", "rename_signals", "hide", "complete", "minimize", "pad_states"]


def hide(automaton: Automaton, signals: Iterable[str], *, name: str | None = None) -> Automaton:
    """Internalize signals: remove them from ``I``/``O`` and all labels.

    Needed when a *pre-composed* context (e.g. role ∥ connector) faces a
    legacy component under the strict Definition 3 matching: the
    context-internal exchanges remain visible in the composed
    interactions and would otherwise be demanded from the peer.  Hiding
    them keeps only the externally relevant I/O — the process-algebra
    hiding operator adapted to the paper's synchronous model.
    """
    hidden = frozenset(signals)
    unknown = hidden - automaton.inputs - automaton.outputs
    if unknown:
        raise ModelError(
            f"cannot hide signals {sorted(unknown)}: not part of {automaton.name!r}'s interface"
        )
    return Automaton(
        states=automaton.states,
        inputs=automaton.inputs - hidden,
        outputs=automaton.outputs - hidden,
        transitions=[
            Transition(
                t.source,
                Interaction(t.inputs - hidden, t.outputs - hidden),
                t.target,
            )
            for t in automaton.transitions
        ],
        initial=automaton.initial,
        labels=automaton.label_map,
        name=name if name is not None else f"{automaton.name}\\hidden",
    )


def restrict(
    automaton: Automaton,
    *,
    inputs: Iterable[str],
    outputs: Iterable[str],
    propositions: Iterable[str] | None = None,
    name: str | None = None,
) -> Automaton:
    """``M|_{I'/O'/𝓛'}``: project interactions and labels onto sub-alphabets.

    Every transition keeps only the signals inside the restricted sets;
    labels keep only the restricted propositions.  The restricted sets
    must be subsets of the automaton's signal sets.
    """
    kept_inputs = frozenset(inputs)
    kept_outputs = frozenset(outputs)
    if not kept_inputs <= automaton.inputs:
        raise ModelError(f"restriction inputs {sorted(kept_inputs)} are not a subset of I")
    if not kept_outputs <= automaton.outputs:
        raise ModelError(f"restriction outputs {sorted(kept_outputs)} are not a subset of O")
    kept_props = None if propositions is None else frozenset(propositions)
    labels = {
        state: props if kept_props is None else props & kept_props
        for state, props in automaton.label_map.items()
    }
    return Automaton(
        states=automaton.states,
        inputs=kept_inputs,
        outputs=kept_outputs,
        transitions=[
            Transition(t.source, t.interaction.restrict(kept_inputs, kept_outputs), t.target)
            for t in automaton.transitions
        ],
        initial=automaton.initial,
        labels=labels,
        name=name if name is not None else f"{automaton.name}|restricted",
    )


def rename_signals(automaton: Automaton, mapping: Mapping[str, str], *, name: str | None = None) -> Automaton:
    """A copy with signals renamed through ``mapping`` (identity default)."""

    def rename(signal: str) -> str:
        return mapping.get(signal, signal)

    def rename_set(signals: frozenset[str]) -> frozenset[str]:
        renamed = frozenset(rename(s) for s in signals)
        if len(renamed) != len(signals):
            raise ModelError(f"signal renaming merges distinct signals in {sorted(signals)}")
        return renamed

    return Automaton(
        states=automaton.states,
        inputs=rename_set(automaton.inputs),
        outputs=rename_set(automaton.outputs),
        transitions=[
            Transition(
                t.source,
                Interaction(rename_set(t.inputs), rename_set(t.outputs)),
                t.target,
            )
            for t in automaton.transitions
        ],
        initial=automaton.initial,
        labels=automaton.label_map,
        name=name if name is not None else automaton.name,
    )


def complete(
    automaton: Automaton,
    universe: InteractionUniverse,
    *,
    sink: State = "⊥",
    sink_labels: Iterable[str] = (),
    name: str | None = None,
) -> Automaton:
    """Make every interaction of ``universe`` enabled by adding a sink.

    Interactions without a transition are redirected to ``sink``, which
    loops on every interaction.  Used to turn partial machines into the
    complete DFAs expected by the L* baseline and by language-style
    reasoning.
    """
    if sink in automaton.states:
        raise ModelError(f"sink state {sink!r} already exists in {automaton.name!r}")
    transitions = list(automaton.transitions)
    needed = False
    for state in automaton.states:
        enabled = automaton.enabled(state)
        for interaction in universe:
            if interaction not in enabled:
                transitions.append(Transition(state, interaction, sink))
                needed = True
    if not needed:
        return automaton
    for interaction in universe:
        transitions.append(Transition(sink, interaction, sink))
    labels = dict(automaton.label_map)
    labels[sink] = frozenset(sink_labels)
    return Automaton(
        states=list(automaton.states) + [sink],
        inputs=automaton.inputs,
        outputs=automaton.outputs,
        transitions=transitions,
        initial=automaton.initial,
        labels=labels,
        name=name if name is not None else f"{automaton.name}^c",
    )


def pad_states(
    automaton: Automaton,
    count: int,
    *,
    seed: int = 0,
    prefix: str = "pad",
    name: str | None = None,
) -> Automaton:
    """Add ``count`` unreachable chaff states with seeded random wiring.

    The paper's "overbuilt" legacy components carry behavior the context
    never exercises; this hook manufactures that situation for generated
    scenarios: the pad states form their own random subgraph (strong
    determinism preserved — at most one reaction per ``(state, inputs)``
    pair) but are unreachable from the initial states, so the language,
    labeling, and every verdict over the original part are untouched
    while ``|S|`` — and with it any state-count heuristic such as an
    assumed L* state bound — grows.
    """
    import random

    if count < 0:
        raise ModelError("pad count must be non-negative")
    if count == 0:
        return automaton
    rng = random.Random(seed)
    pads = [f"{prefix}{index}" for index in range(count)]
    taken = set(automaton.states)
    for pad in pads:
        if pad in taken:
            raise ModelError(f"pad state {pad!r} already exists in {automaton.name!r}")
    input_sets = [frozenset()] + [frozenset({signal}) for signal in sorted(automaton.inputs)]
    output_sets = [frozenset()] + [frozenset({signal}) for signal in sorted(automaton.outputs)]
    transitions = list(automaton.transitions)
    for pad in pads:
        for input_set in input_sets:
            if rng.random() < 0.5:
                continue
            transitions.append(
                Transition(pad, Interaction(input_set, rng.choice(output_sets)), rng.choice(pads))
            )
    return Automaton(
        states=list(automaton.states) + pads,
        inputs=automaton.inputs,
        outputs=automaton.outputs,
        transitions=transitions,
        initial=automaton.initial,
        labels=automaton.label_map,
        name=name if name is not None else f"{automaton.name}+{count}pad",
    )


def minimize(automaton: Automaton, *, name: str | None = None) -> Automaton:
    """Moore partition refinement for deterministic automata.

    States are merged when they carry the same labels and are
    transition-equivalent under every interaction.  The automaton must be
    deterministic in the sense of Definition 1 (§2.6); the result is
    language- and labeling-equivalent.
    """
    if not automaton.is_deterministic():
        raise ModelError(f"minimize requires a deterministic automaton, got {automaton.name!r}")

    # Initial partition: by label set and by enabled interaction set (the
    # latter separates states with different refusal/deadlock behavior).
    def signature(state: State) -> tuple:
        enabled = tuple(sorted((i.sort_key() for i in automaton.enabled(state))))
        return (tuple(sorted(automaton.labels(state))), enabled)

    blocks: dict[tuple, set[State]] = {}
    for state in automaton.states:
        blocks.setdefault(signature(state), set()).add(state)
    partition: list[frozenset[State]] = [frozenset(block) for block in blocks.values()]

    def block_of(state: State, parts: list[frozenset[State]]) -> int:
        for index, part in enumerate(parts):
            if state in part:
                return index
        raise AssertionError(f"state {state!r} in no block")

    changed = True
    while changed:
        changed = False
        next_partition: list[frozenset[State]] = []
        for part in partition:
            refined: dict[tuple, set[State]] = {}
            for state in part:
                key = tuple(
                    sorted(
                        (t.interaction.sort_key(), block_of(t.target, partition))
                        for t in automaton.transitions_from(state)
                    )
                )
                refined.setdefault(key, set()).add(state)
            if len(refined) > 1:
                changed = True
            next_partition.extend(frozenset(block) for block in refined.values())
        partition = next_partition

    representative = {}
    for part in partition:
        rep = sorted(part, key=repr)[0]
        for state in part:
            representative[state] = rep
    kept = frozenset(representative.values())
    transitions = {
        Transition(representative[t.source], t.interaction, representative[t.target])
        for t in automaton.transitions
    }
    return Automaton(
        states=kept,
        inputs=automaton.inputs,
        outputs=automaton.outputs,
        transitions=transitions,
        initial={representative[q] for q in automaton.initial},
        labels={s: automaton.labels(s) for s in kept},
        name=name if name is not None else f"min({automaton.name})",
    )
