"""Synchronous parallel composition (Definition 3 of the paper).

Two automata with disjoint input sets and disjoint output sets are
*composable*; if neither reads what the other writes they are even
*orthogonal*.  The parallel composition ``M ∥ M'`` executes both
machines in lock-step (synchronous execution, §2.2): a combined
transition exists iff the local transitions agree on the signals they
exchange.

Two matching disciplines are offered:

``strict`` (the paper's Definition 3 literally)
    ``(A ∩ O') = B'`` and ``(A' ∩ O) = B`` — every output of one side
    must be consumed by the other in the same time unit.  Appropriate
    for *closed* two-party systems such as a pattern role against a
    legacy component.

``open``
    ``(A ∩ O') = (B' ∩ I)`` and ``(A' ∩ O) = (B ∩ I')`` — only the
    signals actually shared between the two machines must match;
    outputs addressed to third parties pass through.  This is the
    discipline used when folding more than two automata together with
    :func:`compose_all`.

The composed state space is built on the fly from the initial states, so
unreachable state combinations are never materialised (the paper's
"S'' and T'' are further adjusted to exclude all non reachable state
combinations and transitions").

Joint states are plain tuples of component states, hashed and compared
structurally.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import Literal

from ..errors import CompositionError
from .automaton import Automaton, State, Transition

__all__ = ["composable", "orthogonal", "compose", "compose_all"]

Semantics = Literal["strict", "open"]


def composable(first: Automaton, second: Automaton) -> bool:
    """``I ∩ I' = ∅`` and ``O ∩ O' = ∅`` (§2, "composable")."""
    return not (first.inputs & second.inputs) and not (first.outputs & second.outputs)


def orthogonal(first: Automaton, second: Automaton) -> bool:
    """Composable and additionally ``I ∩ O' = ∅`` and ``O ∩ I' = ∅``."""
    return (
        composable(first, second)
        and not (first.inputs & second.outputs)
        and not (first.outputs & second.inputs)
    )


def _matches(
    left: Transition,
    right: Transition,
    first: Automaton,
    second: Automaton,
    semantics: Semantics,
) -> bool:
    a, b = left.inputs, left.outputs
    a2, b2 = right.inputs, right.outputs
    if semantics == "strict":
        return (a & second.outputs) == b2 and (a2 & first.outputs) == b
    return (a & second.outputs) == (b2 & first.inputs) and (a2 & first.outputs) == (
        b & second.inputs
    )


def compose(
    first: Automaton,
    second: Automaton,
    *,
    semantics: Semantics = "strict",
    name: str | None = None,
    _flatten_left: bool = False,
) -> Automaton:
    """The parallel composition ``first ∥ second`` of Definition 3.

    States of the result are ``(s, s')`` pairs, labels are the union
    ``L(s) ∪ L'(s')``, and only state combinations reachable from the
    initial pairs ``Q × Q'`` are kept.

    ``_flatten_left`` is internal, for :func:`compose_all`: when the
    left operand's states are already tuples of component states, the
    combined states are built as ``(*s, s')`` directly during the BFS —
    so folding ``n`` machines flattens once instead of re-mapping the
    whole accumulated product after every fold step.
    """
    if not composable(first, second):
        raise CompositionError(
            f"{first.name!r} and {second.name!r} are not composable: "
            f"shared inputs {sorted(first.inputs & second.inputs)}, "
            f"shared outputs {sorted(first.outputs & second.outputs)}"
        )
    if semantics not in ("strict", "open"):
        raise CompositionError(f"unknown composition semantics {semantics!r}")
    if _flatten_left:
        join = lambda s1, s2: (*s1, s2)  # noqa: E731
    else:
        join = lambda s1, s2: (s1, s2)  # noqa: E731
    initial = [
        join(q1, q2) for q1 in sorted(first.initial, key=repr) for q2 in sorted(second.initial, key=repr)
    ]
    pairs: dict[State, tuple[State, State]] = {
        join(q1, q2): (q1, q2) for q1 in first.initial for q2 in second.initial
    }
    seen: set[State] = set(initial)
    queue: deque[State] = deque(initial)
    transitions: list[Transition] = []
    while queue:
        combined = queue.popleft()
        s1, s2 = pairs[combined]
        for left in first.transitions_from(s1):
            for right in second.transitions_from(s2):
                if not _matches(left, right, first, second, semantics):
                    continue
                target = join(left.target, right.target)
                transitions.append(
                    Transition(combined, left.interaction.union(right.interaction), target)
                )
                if target not in seen:
                    seen.add(target)
                    pairs[target] = (left.target, right.target)
                    queue.append(target)

    labels = {state: first.labels(s1) | second.labels(s2) for state, (s1, s2) in pairs.items()}
    return Automaton(
        states=seen,
        inputs=first.inputs | second.inputs,
        outputs=first.outputs | second.outputs,
        transitions=transitions,
        initial=initial,
        labels=labels,
        name=name if name is not None else f"({first.name} || {second.name})",
    )


def compose_all(
    automata: Sequence[Automaton],
    *,
    semantics: Semantics = "open",
    name: str | None = None,
) -> Automaton:
    """Fold a sequence of automata into one composition, left to right.

    The resulting states are flat tuples ``(s₁, …, sₙ)`` rather than
    nested pairs, so that run projection by component index works
    uniformly regardless of how many machines were composed.  The
    flattening happens inside each fold step's BFS (no quadratic
    ``map_states`` pass over the accumulated product).
    """
    if not automata:
        raise CompositionError("compose_all needs at least one automaton")
    result = automata[0]
    for position, machine in enumerate(automata[1:]):
        result = compose(result, machine, semantics=semantics, _flatten_left=position > 0)
    if name is not None:
        result = result.replace(name=name)
    return result
