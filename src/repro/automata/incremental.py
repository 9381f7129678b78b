"""Incremental maintenance of closures, products, and checkers (§4.4).

The synthesis loop of §4 re-verifies ``M_a^c ∥ chaos(M_l^i)`` after every
learning step.  Each step touches only a handful of states of the
learned model ``M_l^i`` — one new transition, a few refusals — yet the
seed implementation rebuilt the chaotic closure, re-explored the full
product state space, and re-ran every fixpoint from scratch, making the
loop quadratic in practice.  This module carries all three structures
across iterations:

:class:`ClosureCache`
    Definition 9's closure decomposes per base state: the transitions
    leaving ``(s,0)``/``(s,1)`` depend only on ``s``'s local knowledge
    (outgoing transitions, refusals, labels).  The cache re-derives the
    transition group of exactly the states whose knowledge changed and
    reports them as the *dirty* closure states.

:class:`IncrementalProduct`
    The n-ary synchronous product re-explored from the initial joint
    states, reusing the cached outgoing edges of every joint state whose
    component-local states are all clean.  The matching discipline of
    Definition 3 depends only on the components' *static* signal
    alphabets, so a left fold over the component transitions reproduces
    :func:`~repro.automata.composition.compose` /
    :func:`~repro.automata.composition.compose_all` exactly.

:class:`IncrementalVerifier`
    Ties both together with the model checker's warm start
    (:class:`~repro.logic.checker.ModelChecker` with ``warm_from``):
    dirty closure states make dirty product states make checker seeds,
    and everything outside the region that can reach a seed keeps its
    previous satisfaction sets.

Soundness of the dirtiness propagation: a joint state's outgoing edges
are a function of its component-local transition groups, so a joint
state all of whose locals kept their groups verbatim has verbatim-equal
edges and labels; the checker then only needs seeds for the remaining
(changed or new) product states.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..logic.checker import ModelChecker

from ..errors import CompositionError, ModelError
from .automaton import Automaton, State, Transition
from .chaos import (
    CHAOS_PROPOSITION,
    S_ALL,
    S_DELTA,
    ClosureState,
    chaotic_core_transitions,
    closure_state_transitions,
)
from .composition import Semantics, composable
from .incomplete import IncompleteAutomaton
from .interaction import InteractionUniverse
from ..obs.tracer import NULL_TRACER

__all__ = [
    "ClosureUpdate",
    "ClosureCache",
    "ProductUpdate",
    "IncrementalProduct",
    "VerificationStep",
    "IncrementalVerifier",
]

# --------------------------------------------------------------------- closure


@dataclass(frozen=True)
class ClosureUpdate:
    """One incremental closure step."""

    closure: Automaton
    dirty_states: frozenset[State]  #: closure states whose edges/labels changed
    reused_groups: int
    rebuilt_groups: int


class ClosureCache:
    """Maintains ``chaos(M_l^i)`` across learning steps of one model.

    ``update`` produces an automaton equal (up to name) to
    :func:`~repro.automata.chaos.chaotic_closure` of the given model,
    rebuilding only the per-state transition groups whose local
    knowledge — outgoing transitions, refusals, labels — changed since
    the previous call.
    """

    def __init__(self, universe: InteractionUniverse, *, tracer=None):
        self.universe = universe
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._core = tuple(sorted(chaotic_core_transitions(universe), key=Transition.sort_key))
        #: per closure-source-state outgoing transitions, each slice sorted
        #: by :meth:`Transition.sort_key` (canonical per-source order).
        self._groups: dict[State, dict[State, tuple[Transition, ...]]] = {}
        self._group_sizes: dict[State, int] = {}
        self._signatures: dict[State, tuple] = {}
        self._previous_initial: frozenset[State] | None = None

    def _signature(self, incomplete: IncompleteAutomaton, state: State) -> tuple:
        return (
            incomplete.automaton.transitions_from(state),
            incomplete.refused(state),
            incomplete.labels(state),
        )

    def update(self, incomplete: IncompleteAutomaton, *, name: str | None = None) -> ClosureUpdate:
        with self.tracer.span("closure.update", model=incomplete.name):
            update = self._update(incomplete, name=name)
        self.tracer.count("closure_cache_hits", update.reused_groups)
        self.tracer.count("closure_cache_misses", update.rebuilt_groups)
        return update

    def _update(self, incomplete: IncompleteAutomaton, *, name: str | None = None) -> ClosureUpdate:
        if (
            self.universe.inputs != incomplete.inputs
            or self.universe.outputs != incomplete.outputs
        ):
            raise ModelError(
                f"universe signals (I={sorted(self.universe.inputs)}, "
                f"O={sorted(self.universe.outputs)}) do not match automaton "
                f"{incomplete.name!r} (I={sorted(incomplete.inputs)}, "
                f"O={sorted(incomplete.outputs)})"
            )
        base_states = incomplete.states
        # Canonical base order: a frozenset's iteration order varies with
        # the hash seed, and letting it pick the ``by_source`` insertion
        # order would make assembled automata differ structurally from
        # run to run.
        ordered_bases = sorted(base_states, key=repr)
        dirty_bases: list[State] = []
        reused = 0
        for state in ordered_bases:
            signature = self._signature(incomplete, state)
            if self._signatures.get(state) == signature:
                reused += 1
                continue
            dirty_bases.append(state)
            self._signatures[state] = signature
        for state in dirty_bases:
            # §4.4: without escapes for interactions already in T, every
            # counterexample leaves the learner something to extract.
            group = closure_state_transitions(
                incomplete, self.universe, state, deterministic_implementation=True
            )
            per_source: dict[State, list[Transition]] = {}
            for transition in group:
                per_source.setdefault(transition.source, []).append(transition)
            self._groups[state] = {
                source: tuple(sorted(slice_, key=Transition.sort_key))
                for source, slice_ in per_source.items()
            }
            self._group_sizes[state] = len(group)
        for gone in [s for s in self._groups if s not in base_states]:
            del self._groups[gone]
            del self._group_sizes[gone]
            del self._signatures[gone]

        initial = frozenset(incomplete.initial)
        if self._previous_initial is not None and initial != self._previous_initial:
            # Initial-state changes don't alter any state's edges, but be
            # conservative: treat every doubled initial state as dirty.
            dirty_bases.extend(sorted(initial | self._previous_initial, key=repr))
        self._previous_initial = initial

        by_source: dict[State, tuple[Transition, ...]] = {}
        count = 0
        for state in ordered_bases:
            by_source.update(self._groups[state])
            count += self._group_sizes[state]
        by_source[S_ALL] = self._core
        count += len(self._core)
        states: list[State] = [ClosureState(s, tag) for s in ordered_bases for tag in (False, True)]
        states.extend([S_ALL, S_DELTA])
        labels: dict[State, frozenset[str]] = {
            ClosureState(s, tag): incomplete.labels(s) for s in ordered_bases for tag in (False, True)
        }
        labels[S_ALL] = frozenset({CHAOS_PROPOSITION})
        labels[S_DELTA] = frozenset({CHAOS_PROPOSITION})
        closure = Automaton._assemble(
            states=frozenset(states),
            inputs=incomplete.inputs,
            outputs=incomplete.outputs,
            by_source=by_source,
            transition_count=count,
            initial=[ClosureState(q, tag) for q in incomplete.initial for tag in (False, True)],
            labels=labels,
            name=name if name is not None else f"chaos({incomplete.name})",
        )
        dirty = frozenset(
            ClosureState(s, tag) for s in set(dirty_bases) for tag in (False, True)
        )
        return ClosureUpdate(
            closure=closure,
            dirty_states=dirty,
            reused_groups=reused,
            rebuilt_groups=len(base_states) - reused,
        )


# --------------------------------------------------------------------- product


@dataclass(frozen=True)
class ProductUpdate:
    """One incremental product step."""

    automaton: Automaton
    dirty_states: frozenset[State]  #: joint states rebuilt this step (checker seeds)
    hits: int
    misses: int


def _joint_edges(
    joint: tuple,
    components: Sequence[Automaton],
    in_prefix: Sequence[frozenset[str]],
    out_prefix: Sequence[frozenset[str]],
    strict: bool,
) -> tuple[tuple[Transition, ...], tuple]:
    """The outgoing product edges of one joint state, by left fold.

    Reproduces ``compose``'s matching per fold step: the accumulated
    prefix plays "first" with the *static* union alphabets
    ``in_prefix[k]``/``out_prefix[k]``, component ``k`` plays "second".
    """
    acc: list[tuple] = [
        (t.interaction, (t.target,)) for t in components[0].transitions_from(joint[0])
    ]
    for k in range(1, len(components)):
        component = components[k]
        comp_in, comp_out = component.inputs, component.outputs
        pref_in, pref_out = in_prefix[k], out_prefix[k]
        merged: list[tuple] = []
        for interaction, targets in acc:
            a, b = interaction.inputs, interaction.outputs
            for t in component.transitions_from(joint[k]):
                a2, b2 = t.interaction.inputs, t.interaction.outputs
                if strict:
                    if (a & comp_out) != b2 or (a2 & pref_out) != b:
                        continue
                else:
                    if (a & comp_out) != (b2 & pref_in) or (a2 & pref_out) != (b & comp_in):
                        continue
                merged.append((interaction.union(t.interaction), (*targets, t.target)))
        acc = merged
    edges = sorted(
        {Transition(joint, interaction, targets) for interaction, targets in acc},
        key=Transition.sort_key,
    )
    targets = tuple(dict.fromkeys(edge.target for edge in edges))
    return tuple(edges), targets


class IncrementalProduct:
    """Reusable n-ary synchronous product (Definition 3, folded left).

    Joint states are flat tuples ``(s₁, …, sₙ)`` of component-local
    states — exactly the state shape of :func:`compose` for ``n = 2``
    and :func:`compose_all` for larger ``n``.  Outgoing edges of a joint
    state are cached between updates and reused whenever every local
    state is clean; dirty locals invalidate every cached joint that
    mentions them *before* the re-exploration, so a state that is
    temporarily unreachable can never resurrect stale edges.
    """

    def __init__(self, *, semantics: Semantics = "strict", tracer=None):
        if semantics not in ("strict", "open"):
            raise CompositionError(f"unknown composition semantics {semantics!r}")
        self.semantics: Semantics = semantics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: joint state -> (sorted outgoing edges, unique targets, labels)
        self._cache: dict[tuple, tuple[tuple[Transition, ...], tuple, frozenset[str]]] = {}
        self._arity: int | None = None

    def _check_composable(self, components: Sequence[Automaton]) -> None:
        for position, right in enumerate(components[1:], start=1):
            for left in components[:position]:
                if not composable(left, right):
                    raise CompositionError(
                        f"{left.name!r} and {right.name!r} are not composable: "
                        f"shared inputs {sorted(left.inputs & right.inputs)}, "
                        f"shared outputs {sorted(left.outputs & right.outputs)}"
                    )

    def update(
        self,
        components: Sequence[Automaton],
        dirty_locals: Sequence[frozenset[State]],
        *,
        name: str | None = None,
    ) -> ProductUpdate:
        with self.tracer.span("product.update", arity=len(components)) as span:
            update = self._update(components, dirty_locals, name=name)
            span.set(hits=update.hits, misses=update.misses)
        return update

    def _update(
        self,
        components: Sequence[Automaton],
        dirty_locals: Sequence[frozenset[State]],
        *,
        name: str | None = None,
    ) -> ProductUpdate:
        components = list(components)
        if len(components) < 2:
            raise CompositionError("IncrementalProduct needs at least two components")
        if len(dirty_locals) != len(components):
            raise CompositionError("dirty_locals must align with components")
        if self._arity is None:
            self._arity = len(components)
        elif self._arity != len(components):
            raise CompositionError(
                f"IncrementalProduct was built for {self._arity} components, got {len(components)}"
            )
        self._check_composable(components)

        dirty_sets = [frozenset(d) for d in dirty_locals]
        if any(dirty_sets):
            stale = [
                joint
                for joint in self._cache
                if any(joint[k] in dirty_sets[k] for k in range(len(dirty_sets)))
            ]
            for joint in stale:
                del self._cache[joint]

        in_prefix: list[frozenset[str]] = [frozenset()]
        out_prefix: list[frozenset[str]] = [frozenset()]
        for component in components[:-1]:
            in_prefix.append(in_prefix[-1] | component.inputs)
            out_prefix.append(out_prefix[-1] | component.outputs)

        initial = [tuple(combo) for combo in iproduct(*(sorted(c.initial, key=repr) for c in components))]
        strict = self.semantics == "strict"

        # Depth-first re-exploration from the initial joint states:
        # cached joints replay their edges, the rest are re-derived (and
        # become the checker's dirty seeds).
        cache = self._cache
        seen: set = set()
        stack: list = []
        for joint in initial:
            if joint not in seen:
                seen.add(joint)
                stack.append(joint)
        by_source: dict[State, tuple[Transition, ...]] = {}
        labels: dict[State, frozenset[str]] = {}
        rebuilt: set = set()
        count = hits = misses = 0
        while stack:
            joint = stack.pop()
            entry = cache.get(joint)
            if entry is None:
                edges, targets = _joint_edges(joint, components, in_prefix, out_prefix, strict)
                label = frozenset().union(
                    *(c.labels(local) for c, local in zip(components, joint))
                )
                cache[joint] = (edges, targets, label)
                rebuilt.add(joint)
                misses += 1
            else:
                edges, targets, label = entry
                hits += 1
            if edges:
                by_source[joint] = edges
                count += len(edges)
            labels[joint] = label
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)

        inputs = frozenset().union(*(c.inputs for c in components))
        outputs = frozenset().union(*(c.outputs for c in components))
        automaton = Automaton._assemble(
            states=frozenset(seen),
            inputs=inputs,
            outputs=outputs,
            by_source=by_source,
            transition_count=count,
            initial=initial,
            labels=labels,
            name=name if name is not None else " || ".join(c.name for c in components),
        )
        return ProductUpdate(
            automaton=automaton, dirty_states=frozenset(rebuilt), hits=hits, misses=misses
        )


# -------------------------------------------------------------------- verifier


@dataclass
class StepStats:
    """Counters for one :meth:`IncrementalVerifier.step`."""

    closure_groups_reused: int = 0
    closure_groups_rebuilt: int = 0
    product_hits: int = 0
    product_misses: int = 0
    dirty_states: int = 0
    affected_states: int = 0


@dataclass(frozen=True)
class VerificationStep:
    """Everything one iteration of the loop needs from the verifier."""

    closures: tuple[Automaton, ...]
    composed: Automaton
    checker: "ModelChecker"
    stats: StepStats = field(compare=False)


class IncrementalVerifier:
    """The synthesis loop's verification engine.

    One instance accompanies one synthesis run; :meth:`step` consumes
    the current learned model(s) and yields closures, the composed
    product, and a warm-started checker that together are equal — as
    automata and as verdicts — to what the from-scratch definitions
    (:func:`chaotic_closure` + :func:`compose`/:func:`compose_all` +
    cold :class:`ModelChecker`) produce.
    """

    def __init__(
        self,
        *,
        context: Automaton | None,
        universes: Sequence[InteractionUniverse],
        semantics: Semantics = "strict",
        tracer=None,
    ):
        if not universes:
            raise ModelError("IncrementalVerifier needs at least one legacy universe")
        self.context = context
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._closure_caches = [
            ClosureCache(universe, tracer=self.tracer) for universe in universes
        ]
        arity = (1 if context is not None else 0) + len(universes)
        self._product = (
            IncrementalProduct(semantics=semantics, tracer=self.tracer) if arity > 1 else None
        )
        self._checker: "ModelChecker | None" = None

    def step(
        self,
        models: Sequence[IncompleteAutomaton],
        *,
        closure_names: Sequence[str] | None = None,
        name: str | None = None,
    ) -> VerificationStep:
        with self.tracer.span("verify.step", models=len(models)):
            return self._step(models, closure_names=closure_names, name=name)

    def _step(
        self,
        models: Sequence[IncompleteAutomaton],
        *,
        closure_names: Sequence[str] | None = None,
        name: str | None = None,
    ) -> VerificationStep:
        from ..logic.checker import ModelChecker

        if len(models) != len(self._closure_caches):
            raise ModelError(
                f"expected {len(self._closure_caches)} models, got {len(models)}"
            )
        stats = StepStats()
        updates = []
        for position, (cache, model) in enumerate(zip(self._closure_caches, models)):
            closure_name = closure_names[position] if closure_names is not None else None
            update = cache.update(model, name=closure_name)
            stats.closure_groups_reused += update.reused_groups
            stats.closure_groups_rebuilt += update.rebuilt_groups
            updates.append(update)

        if self._product is None:
            composed = updates[0].closure
            dirty = updates[0].dirty_states
        else:
            components: list[Automaton] = []
            dirty_locals: list[frozenset[State]] = []
            if self.context is not None:
                components.append(self.context)
                dirty_locals.append(frozenset())
            for update in updates:
                components.append(update.closure)
                dirty_locals.append(update.dirty_states)
            product = self._product.update(components, dirty_locals, name=name)
            composed = product.automaton
            dirty = product.dirty_states
            stats.product_hits = product.hits
            stats.product_misses = product.misses

        stats.dirty_states = len(dirty)
        checker = ModelChecker(
            composed,
            warm_from=self._checker,
            dirty_states=dirty,
            tracer=self.tracer,
        )
        self._checker = checker
        stats.affected_states = checker.stats.affected_states
        return VerificationStep(
            closures=tuple(update.closure for update in updates),
            composed=composed,
            checker=checker,
            stats=stats,
        )
