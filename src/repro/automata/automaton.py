"""The automaton model of Definition 1 (extended with labeling, §2.1).

An :class:`Automaton` is the 6-tuple ``M = (S, I, O, T, L, Q)``:

* a finite set ``S`` of states (arbitrary hashable Python values),
* input signals ``I`` and output signals ``O`` (sets of strings),
* transitions ``T ⊆ S × ℘(I) × ℘(O) × S`` (see
  :class:`~repro.automata.interaction.Interaction`),
* a labeling ``L : S → ℘(P)`` assigning atomic propositions to states,
* a non-empty set ``Q ⊆ S`` of initial states.

The time semantics is the paper's: every transition takes exactly one
discrete time unit.  A state without outgoing transitions is a
*deadlock* state (§2.1, the special symbol ``δ``).

Instances are immutable after construction; all "modifying" operations
return new automata.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Callable

from ..errors import ModelError
from .interaction import Interaction

__all__ = ["State", "Transition", "Automaton"]

State = Hashable


class Transition:
    """A single transition ``(source, A, B, target)`` of Definition 1.

    The hash and the canonical sort key are computed once per object and
    cached: transitions are routinely reused across many automata (the
    incremental closure and product keep them alive between synthesis
    iterations), and re-deriving ``repr``-based keys on every
    :class:`Automaton` construction used to dominate construction time.
    """

    __slots__ = ("source", "interaction", "target", "_hash", "_skey")

    def __init__(self, source: State, interaction: Interaction, target: State):
        self.source = source
        self.interaction = interaction
        self.target = target

    @property
    def inputs(self) -> frozenset[str]:
        return self.interaction.inputs

    @property
    def outputs(self) -> frozenset[str]:
        return self.interaction.outputs

    def _key(self) -> tuple:
        return (self.source, self.interaction, self.target)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Transition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.source, self.interaction, self.target))
            self._hash = value
            return value

    def sort_key(self) -> tuple:
        """Canonical ``(repr(source), interaction key, repr(target))`` order."""
        try:
            return self._skey
        except AttributeError:
            key = (repr(self.source), self.interaction.sort_key(), repr(self.target))
            self._skey = key
            return key

    def __repr__(self) -> str:
        return f"Transition({self.source!r}, {self.interaction}, {self.target!r})"


def _as_transition(item: "Transition | tuple") -> Transition:
    if isinstance(item, Transition):
        return item
    if isinstance(item, tuple):
        if len(item) == 3:
            source, interaction, target = item
            if not isinstance(interaction, Interaction):
                interaction = Interaction(*interaction)
            return Transition(source, interaction, target)
        if len(item) == 4:
            source, inputs, outputs, target = item
            return Transition(source, Interaction(inputs, outputs), target)
    raise TypeError(f"cannot interpret {item!r} as a transition")


class Automaton:
    """Immutable finite automaton ``M = (S, I, O, T, L, Q)``.

    Parameters
    ----------
    states:
        The state set ``S``.  States mentioned by transitions or initial
        states are added automatically.
    inputs, outputs:
        The signal sets ``I`` and ``O``.
    transitions:
        An iterable of :class:`Transition` objects or of
        ``(source, interaction, target)`` /
        ``(source, inputs, outputs, target)`` tuples.
    initial:
        The non-empty initial state set ``Q``.
    labels:
        Optional mapping ``L`` from states to iterables of atomic
        propositions; unlisted states are labeled with the empty set.
    name:
        Optional human-readable name used in reports and DOT exports.
    """

    __slots__ = (
        "name",
        "states",
        "inputs",
        "outputs",
        "initial",
        "_labels",
        "_by_source",
        "_by_source_inputs",
        "_ordered",
        "_transitions",
        "_transition_count",
    )

    def __init__(
        self,
        *,
        states: Iterable[State] = (),
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        transitions: Iterable[Transition | tuple] = (),
        initial: Iterable[State],
        labels: Mapping[State, Iterable[str]] | None = None,
        name: str = "M",
        _ordered: "tuple[Transition, ...] | None" = None,
        _trusted: bool = False,
    ):
        self.name = name
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        if _ordered is not None:
            ordered = _ordered
            transition_set = frozenset(ordered)
        else:
            transition_set = frozenset(_as_transition(t) for t in transitions)
            ordered = tuple(sorted(transition_set, key=Transition.sort_key))
        initial_set = frozenset(initial)
        state_set = (
            frozenset(states)
            | initial_set
            | frozenset(t.source for t in ordered)
            | frozenset(t.target for t in ordered)
        )
        self.states = state_set
        self._transitions = transition_set
        self._transition_count = len(transition_set)
        self.initial = initial_set
        self._ordered = ordered
        label_map: dict[State, frozenset[str]] = {}
        if labels:
            for state, props in labels.items():
                label_map[state] = frozenset(props)
        self._labels = label_map
        grouped: dict[State, list[Transition]] = {}
        for transition in ordered:
            grouped.setdefault(transition.source, []).append(transition)
        self._by_source = {source: tuple(slice_) for source, slice_ in grouped.items()}
        self._by_source_inputs = None
        self._validate(check_signals=not _trusted)

    @classmethod
    def _assemble(
        cls,
        *,
        states: frozenset[State],
        inputs: frozenset[str],
        outputs: frozenset[str],
        by_source: "dict[State, tuple[Transition, ...]]",
        transition_count: int,
        initial: Iterable[State],
        labels: dict[State, frozenset[str]],
        name: str,
    ) -> "Automaton":
        """Internal zero-copy constructor for the incremental engine.

        ``by_source`` must map each non-deadlock state to its outgoing
        transitions sorted by :meth:`Transition.sort_key` (i.e. exactly
        the per-source slices of the canonical global order), contain no
        duplicates, and mention only valid signals — the caller
        guarantees what ``__init__`` normally establishes.  The global
        transition tuple/set are derived lazily on first use, so
        assembling an automaton is O(|S|) instead of O(|T| log |T|).
        """
        self = object.__new__(cls)
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.states = states
        self.initial = frozenset(initial)
        self._labels = labels
        self._by_source = by_source
        self._by_source_inputs = None
        self._ordered = None
        self._transitions = None
        self._transition_count = transition_count
        if not self.initial:
            raise ModelError(f"automaton {name!r} has no initial state")
        return self

    def _validate(self, *, check_signals: bool = True) -> None:
        if not self.initial:
            raise ModelError(f"automaton {self.name!r} has no initial state")
        stray = self._labels.keys() - self.states
        if stray:
            raise ModelError(f"automaton {self.name!r} labels unknown states: {sorted(map(repr, stray))}")
        if not check_signals:
            return
        for transition in self.transitions:
            if not transition.inputs <= self.inputs:
                raise ModelError(
                    f"automaton {self.name!r}: transition {transition!r} consumes signals "
                    f"outside I={sorted(self.inputs)}"
                )
            if not transition.outputs <= self.outputs:
                raise ModelError(
                    f"automaton {self.name!r}: transition {transition!r} produces signals "
                    f"outside O={sorted(self.outputs)}"
                )

    # ------------------------------------------------------------------ labels

    def labels(self, state: State) -> frozenset[str]:
        """The labeling ``L(state)``; the empty set for unlabeled states."""
        if state not in self.states:
            raise ModelError(f"automaton {self.name!r} has no state {state!r}")
        return self._labels.get(state, frozenset())

    @property
    def label_map(self) -> dict[State, frozenset[str]]:
        """``L`` as a dict over all states (unlabeled states included)."""
        return {state: self._labels.get(state, frozenset()) for state in self.states}

    @property
    def propositions(self) -> frozenset[str]:
        """``𝓛(M)``: every proposition used by the labeling (§2.1)."""
        if not self._labels:
            return frozenset()
        return frozenset().union(*self._labels.values())

    # -------------------------------------------------------------- structure

    @property
    def transitions(self) -> frozenset[Transition]:
        """The transition set ``T``."""
        cached = self._transitions
        if cached is None:
            cached = frozenset(self.ordered_transitions)
            self._transitions = cached
        return cached

    @property
    def transition_count(self) -> int:
        """``|T|`` without materialising the transition set."""
        return self._transition_count

    @property
    def ordered_transitions(self) -> tuple[Transition, ...]:
        """All transitions in the canonical deterministic order."""
        cached = self._ordered
        if cached is None:
            # Assembled automata store per-source slices of the canonical
            # order; concatenating them by source repr restores it.
            # Distinct sources can share a repr, and breaking such a tie
            # by dict insertion order would leak construction history
            # (e.g. the product's exploration order) into the
            # canonical order — so tied groups are merged and re-sorted
            # by the full transition key instead.
            sources = sorted(self._by_source, key=repr)
            pieces: list[Transition] = []
            index = 0
            while index < len(sources):
                end = index + 1
                key = repr(sources[index])
                while end < len(sources) and repr(sources[end]) == key:
                    end += 1
                if end == index + 1:
                    pieces.extend(self._by_source[sources[index]])
                else:
                    pieces.extend(
                        sorted(
                            (t for s in sources[index:end] for t in self._by_source[s]),
                            key=Transition.sort_key,
                        )
                    )
                index = end
            cached = tuple(pieces)
            self._ordered = cached
        return cached

    def transitions_from(self, state: State) -> tuple[Transition, ...]:
        """All transitions leaving ``state`` in a deterministic order."""
        return self._by_source.get(state, ())

    def transitions_on(self, state: State, inputs: Iterable[str]) -> tuple[Transition, ...]:
        """Transitions from ``state`` consuming exactly the given inputs."""
        index = self._by_source_inputs
        if index is None:
            grouped: dict[tuple, list[Transition]] = {}
            for transition in self.ordered_transitions:
                grouped.setdefault((transition.source, transition.interaction.inputs), []).append(
                    transition
                )
            index = {key: tuple(slice_) for key, slice_ in grouped.items()}
            self._by_source_inputs = index
        return index.get((state, frozenset(inputs)), ())

    def successors(self, state: State) -> frozenset[State]:
        return frozenset(t.target for t in self.transitions_from(state))

    def enabled(self, state: State) -> frozenset[Interaction]:
        """The interactions offered in ``state``."""
        return frozenset(t.interaction for t in self.transitions_from(state))

    def is_deadlock(self, state: State) -> bool:
        """True iff ``state`` has no outgoing transition (the ``δ`` case)."""
        return not self._by_source.get(state)

    @property
    def deadlock_states(self) -> frozenset[State]:
        return frozenset(s for s in self.states if self.is_deadlock(s))

    @property
    def interactions(self) -> frozenset[Interaction]:
        """Every interaction that appears on some transition."""
        return frozenset(t.interaction for t in self.transitions)

    def is_deterministic(self) -> bool:
        """Definition 1 / §2.6 determinism: ≤ 1 target per ``(s, A, B)``."""
        seen: set[tuple[State, Interaction]] = set()
        for transition in self.transitions:
            key = (transition.source, transition.interaction)
            if key in seen:
                return False
            seen.add(key)
        return len(self.initial) <= 1

    def is_strongly_deterministic(self) -> bool:
        """≤ 1 reaction per ``(s, A)``: the executable-component notion.

        §4.3 of the paper requires the *implementation* to be
        deterministic ("any non-determinism or pseudo non-determinism is
        excluded"); for an executable component that means the reaction
        (outputs and successor state) to a given input set is unique.
        """
        seen: set[tuple[State, frozenset[str]]] = set()
        for transition in self.transitions:
            key = (transition.source, transition.interaction.inputs)
            if key in seen:
                return False
            seen.add(key)
        return len(self.initial) <= 1

    # ------------------------------------------------------------- rebuilding

    def replace(
        self,
        *,
        states: Iterable[State] | None = None,
        inputs: Iterable[str] | None = None,
        outputs: Iterable[str] | None = None,
        transitions: Iterable[Transition | tuple] | None = None,
        initial: Iterable[State] | None = None,
        labels: Mapping[State, Iterable[str]] | None = None,
        name: str | None = None,
    ) -> "Automaton":
        """A copy with the given fields replaced."""
        return Automaton(
            states=self.states if states is None else states,
            inputs=self.inputs if inputs is None else inputs,
            outputs=self.outputs if outputs is None else outputs,
            transitions=() if transitions is None else transitions,
            initial=self.initial if initial is None else initial,
            labels=self._labels if labels is None else labels,
            name=self.name if name is None else name,
            # Unchanged transitions keep their canonical order — no re-sort.
            _ordered=self.ordered_transitions if transitions is None else None,
        )

    def with_labels(self, labeler: Callable[[State], Iterable[str]]) -> "Automaton":
        """A copy labeled by applying ``labeler`` to every state."""
        return self.replace(labels={state: frozenset(labeler(state)) for state in self.states})

    def map_states(self, rename: Callable[[State], State], *, name: str | None = None) -> "Automaton":
        """A copy with every state renamed through ``rename``.

        ``rename`` must be injective on the state set; otherwise distinct
        states would be merged silently, which is almost never intended.
        """
        mapping = {state: rename(state) for state in self.states}
        if len(set(mapping.values())) != len(mapping):
            raise ModelError(f"state renaming for {self.name!r} is not injective")
        return Automaton(
            states=mapping.values(),
            inputs=self.inputs,
            outputs=self.outputs,
            transitions=[
                Transition(mapping[t.source], t.interaction, mapping[t.target]) for t in self.transitions
            ],
            initial=[mapping[s] for s in self.initial],
            labels={mapping[s]: props for s, props in self._labels.items()},
            name=self.name if name is None else name,
        )

    # ------------------------------------------------------------------ dunder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return (
            self.states == other.states
            and self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.transitions == other.transitions
            and self.initial == other.initial
            and self.label_map == other.label_map
        )

    def __hash__(self) -> int:
        return hash((self.states, self.inputs, self.outputs, self.transitions, self.initial))

    def __repr__(self) -> str:
        return (
            f"Automaton(name={self.name!r}, |S|={len(self.states)}, |T|={len(self.transitions)}, "
            f"|I|={len(self.inputs)}, |O|={len(self.outputs)}, |Q|={len(self.initial)})"
        )
