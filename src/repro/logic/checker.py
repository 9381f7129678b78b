"""CTL/CCTL model checking over labeled automata (§2.1, §4.1).

The checker evaluates formulas over the automaton's state graph with
*maximal path* semantics: a path is maximal when it is infinite or ends
in a deadlock state.  This matters because the paper's verification
obligation is always ``φ ∧ ¬δ`` — deadlock states are first-class
citizens, not semantic accidents:

* ``AX φ`` is vacuously true in a deadlock state;
* ``AF φ`` fails in a deadlock state unless ``φ`` already holds there;
* ``EG φ`` is satisfied by a path that deadlocks while ``φ`` holds.

Unbounded operators use the standard least/greatest fixpoint
characterisations, computed with linear-time predecessor worklists
(insertion for least fixpoints, counted removal for greatest ones)
rather than whole-state-space sweeps.  Bounded (CCTL) operators use a
backward dynamic program over the remaining window, exploiting that
every transition takes exactly one time unit.

Warm start (incremental re-checking)
------------------------------------

``ModelChecker(automaton, warm_from=prev, dirty_states=seeds)`` reuses
work from a checker built for the *previous* version of the automaton.
``seeds`` must contain every state whose outgoing transitions or labels
differ from the previous automaton (new states are detected
automatically).  Because every CTL value of a state depends only on the
subgraph reachable from it, any state that cannot reach a seed — the
*unaffected region* — keeps its previous satisfaction values verbatim;
fixpoints are re-solved only over the affected region, with the
unaffected boundary supplying fixed values.  This is what makes
re-verification after a small learning step nearly free (see
``docs/performance.md``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..automata.automaton import Automaton, State
from ..errors import FormulaError
from ..obs.tracer import NULL_TRACER
from .formulas import (
    AF,
    AG,
    AU,
    AX,
    And,
    Deadlock,
    EF,
    EG,
    EU,
    EX,
    FalseF,
    Formula,
    Implies,
    Interval,
    Not,
    Or,
    Prop,
    TrueF,
)

__all__ = ["CheckResult", "CheckerStats", "ModelChecker", "check"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one formula against one automaton."""

    formula: Formula
    holds: bool
    satisfying: frozenset[State]
    violating_initial: frozenset[State]

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class CheckerStats:
    """Work counters, mainly interesting for warm-started checkers.

    :meth:`as_dict` reports every counter under the ``checker_*``
    namespace, mirroring the ``product_*`` namespace of the incremental
    product's :class:`~repro.automata.incremental.StepStats` — the two
    vocabularies meet on ``IterationRecord`` and in synthesis reports.
    """

    successors_reused: int = 0  #: per-state successor tuples taken from the warm checker
    sat_reused: int = 0  #: formulas answered entirely from the warm cache
    sat_patched: int = 0  #: formulas re-solved only over the affected region
    sat_computed: int = 0  #: formulas evaluated from scratch
    affected_states: int = 0  #: size of the affected region (0 when cold)
    fixpoint_work: int = 0  #: worklist insertions/removals across all fixpoints

    def as_dict(self) -> dict[str, object]:
        return {
            "checker_successors_reused": self.successors_reused,
            "checker_sat_reused": self.sat_reused,
            "checker_sat_patched": self.sat_patched,
            "checker_sat_computed": self.sat_computed,
            "checker_affected_states": self.affected_states,
            "checker_fixpoint_work": self.fixpoint_work,
        }

    def publish_to(self, registry) -> None:
        """Snapshot every ``checker_*`` counter into a metrics registry.

        Gauge semantics (``MetricsRegistry.absorb``): the stats object
        is cumulative per checker, so re-publishing never double-counts.
        """
        registry.absorb(self.as_dict())


@dataclass
class _WarmState:
    """What survives from the previous iteration's checker."""

    states: frozenset[State]
    cache: dict[Formula, frozenset[State]]
    layers: dict[tuple, list[frozenset[State]]]
    affected: frozenset[State] = field(default_factory=frozenset)
    unaffected: frozenset[State] = field(default_factory=frozenset)


class ModelChecker:
    """A reusable checker for one automaton.

    Satisfaction sets are memoised per (sub)formula, so checking several
    properties — or re-explaining subformulas during counterexample
    construction — does not repeat fixpoint computations.

    Parameters
    ----------
    automaton:
        The model to check.
    warm_from:
        A checker previously built for an *earlier version* of the same
        automaton.  Structural maps and satisfaction sets are carried
        over for every state outside the affected region.
    dirty_states:
        Required with ``warm_from``: every state of ``automaton`` whose
        outgoing transitions or labels differ from the warm checker's
        automaton.  States absent from the warm automaton are treated as
        dirty automatically; removed states need no mention (their
        erstwhile predecessors must have changed and hence be listed).
    tracer:
        A :class:`repro.obs.Tracer` receiving ``checker.fixpoint`` /
        ``checker.bounded`` spans.  Defaults to the no-op
        tracer; the environment is deliberately *not* consulted here —
        only the synthesis entry points resolve ``REPRO_TRACE``.
    """

    def __init__(
        self,
        automaton: Automaton,
        *,
        warm_from: "ModelChecker | None" = None,
        dirty_states: Iterable[State] = (),
        tracer=None,
    ):
        self.automaton = automaton
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = CheckerStats()
        states = automaton.states

        old_successors = warm_from._successors if warm_from is not None else None
        dirty = frozenset(dirty_states) if warm_from is not None else frozenset()
        successors: dict[State, tuple[State, ...]] = {}
        fresh: list[State] = []
        for state in states:
            if old_successors is not None and state not in dirty:
                cached = old_successors.get(state)
                if cached is not None:
                    successors[state] = cached
                    self.stats.successors_reused += 1
                    continue
            successors[state] = tuple(
                sorted({t.target for t in automaton.transitions_from(state)}, key=repr)
            )
            fresh.append(state)
        self._successors = successors
        if old_successors is None:
            predecessors: dict[State, list[State]] = {}
            for state, succ in successors.items():
                for target in succ:
                    predecessors.setdefault(target, []).append(state)
        else:
            # Warm start: splice only the edges of re-derived and removed
            # states into a copy of the previous predecessor map.
            assert warm_from is not None
            predecessors = {
                target: preds
                for target, preds in warm_from._predecessors.items()
                if target in states
            }
            copied: set[State] = set()

            def detach(source: State, targets: tuple[State, ...]) -> None:
                for target in targets:
                    preds = predecessors.get(target)
                    if preds is None:
                        continue
                    if target not in copied:
                        preds = list(preds)
                        predecessors[target] = preds
                        copied.add(target)
                    if source in preds:
                        preds.remove(source)

            def attach(source: State, targets: tuple[State, ...]) -> None:
                for target in targets:
                    preds = predecessors.get(target)
                    if preds is None:
                        predecessors[target] = [source]
                        copied.add(target)
                        continue
                    if target not in copied:
                        preds = list(preds)
                        predecessors[target] = preds
                        copied.add(target)
                    preds.append(source)

            for state in fresh:
                old = old_successors.get(state)
                if old is not None:
                    detach(state, old)
            for state in warm_from.automaton.states:
                if state not in states:
                    detach(state, old_successors.get(state, ()))
            for state in fresh:
                attach(state, successors[state])
        self._predecessors = predecessors
        self._deadlocks = frozenset(s for s, succ in successors.items() if not succ)
        self._cache: dict[Formula, frozenset[State]] = {}
        self._layer_memo: dict[tuple, list[frozenset[State]]] = {}
        self._formula_layers: dict[tuple, list[frozenset[State]]] = {}
        self._warm = self._prepare_warm(warm_from, dirty) if warm_from is not None else None

    def _prepare_warm(self, warm_from: "ModelChecker", dirty: frozenset[State]) -> "_WarmState | None":
        states = self.automaton.states
        seeds = {s for s in states if s in dirty or s not in warm_from._successors}
        # Affected region: everything that can reach a seed.  Values of
        # all other states are untouched by the change, because a CTL
        # value only depends on the reachable subgraph.
        affected = set(seeds)
        queue = deque(seeds)
        while queue:
            state = queue.popleft()
            for pred in self._predecessors.get(state, ()):
                if pred not in affected:
                    affected.add(pred)
                    queue.append(pred)
        warm = _WarmState(
            states=warm_from.automaton.states,
            cache=warm_from._cache,
            layers=warm_from._formula_layers,
            affected=frozenset(affected),
            unaffected=states - affected,
        )
        self.stats.affected_states = len(warm.affected)
        if not warm.affected:
            # Nothing changed: bounded-operator layers stay valid and must
            # travel forward so the *next* warm start can still patch them.
            self._formula_layers.update(warm_from._formula_layers)
        return warm

    # ------------------------------------------------------------- public API

    def sat(self, formula: Formula) -> frozenset[State]:
        """The set of states satisfying ``formula``."""
        cached = self._cache.get(formula)
        if cached is None:
            cached = self._evaluate(formula)
            self._cache[formula] = cached
        return cached

    def holds(self, formula: Formula) -> bool:
        """``M ⊨ φ``: every initial state satisfies the formula."""
        satisfying = self.sat(formula)
        return all(q in satisfying for q in self.automaton.initial)

    def check(self, formula: Formula) -> CheckResult:
        satisfying = self.sat(formula)
        violating = frozenset(q for q in self.automaton.initial if q not in satisfying)
        return CheckResult(formula, not violating, satisfying, violating)

    @property
    def deadlock_states(self) -> frozenset[State]:
        return self._deadlocks

    def successors(self, state: State) -> tuple[State, ...]:
        return self._successors[state]

    # -------------------------------------------------------------- warm help

    def _warm_previous(self, formula: Formula) -> frozenset[State] | None:
        """The previous iteration's sat set for ``formula``, if any."""
        if self._warm is None:
            return None
        return self._warm.cache.get(formula)

    def _patchable(self, formula: Formula) -> tuple[frozenset[State], frozenset[State]] | None:
        """``(domain, boundary)`` for an affected-region re-solve, or None.

        ``domain`` is the affected region to re-solve over; ``boundary``
        is the (already final) satisfaction on the unaffected region.
        Returns None when there is no warm value to patch from, in which
        case the caller evaluates from scratch.
        """
        previous = self._warm_previous(formula)
        if previous is None:
            return None
        warm = self._warm
        assert warm is not None
        return warm.affected, previous & warm.unaffected

    # ------------------------------------------------------------ evaluation

    def _evaluate(self, formula: Formula) -> frozenset[State]:
        states = self.automaton.states
        if self._warm is not None and not self._warm.affected:
            # Nothing reachable changed: every previous answer stands.
            previous = self._warm_previous(formula)
            if previous is not None:
                self.stats.sat_reused += 1
                return previous & states
        if isinstance(formula, TrueF):
            return states
        if isinstance(formula, FalseF):
            return frozenset()
        if isinstance(formula, Prop):
            return self._evaluate_prop(formula)
        if isinstance(formula, Deadlock):
            return self._deadlocks
        if isinstance(formula, Not):
            return states - self.sat(formula.operand)
        if isinstance(formula, And):
            return self.sat(formula.left) & self.sat(formula.right)
        if isinstance(formula, Or):
            return self.sat(formula.left) | self.sat(formula.right)
        if isinstance(formula, Implies):
            return (states - self.sat(formula.left)) | self.sat(formula.right)
        if isinstance(formula, (AX, EX)):
            return self._evaluate_next(formula)
        if isinstance(formula, (AF, EF, AG, EG)):
            operand = self.sat(formula.operand)
            if formula.interval is not None:
                return self._layers_for(formula, type(formula).__name__, operand, formula.interval)[0]
            return self._unbounded_unary(formula, type(formula).__name__, operand)
        if isinstance(formula, (AU, EU)):
            left, right = self.sat(formula.left), self.sat(formula.right)
            universal = isinstance(formula, AU)
            if formula.interval is not None:
                return self._bounded_until(formula, left, right, formula.interval, universal=universal)
            return self._unbounded_until(formula, left, right, universal=universal)
        raise FormulaError(f"unknown formula node {formula!r}")

    def _evaluate_prop(self, formula: Prop) -> frozenset[State]:
        patch = self._patchable(formula)
        label_map = self.automaton._labels
        name = formula.name
        if patch is not None:
            domain, boundary = patch
            self.stats.sat_patched += 1
            return boundary | frozenset(s for s in domain if name in label_map.get(s, ()))
        self.stats.sat_computed += 1
        return frozenset(s for s in self.automaton.states if name in label_map.get(s, ()))

    def _evaluate_next(self, formula: "AX | EX") -> frozenset[State]:
        operand = self.sat(formula.operand)
        universal = isinstance(formula, AX)
        patch = self._patchable(formula)
        if patch is not None:
            domain, boundary = patch
            self.stats.sat_patched += 1
        else:
            domain, boundary = self.automaton.states, frozenset()
            self.stats.sat_computed += 1
        if universal:
            local = frozenset(
                s for s in domain if all(t in operand for t in self._successors[s])
            )
        else:
            local = frozenset(
                s for s in domain if any(t in operand for t in self._successors[s])
            )
        return boundary | local

    # ------------------------------------------------------- unbounded cases

    def _solve_exists_reach(
        self,
        goal: frozenset[State],
        through: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``lfp Z = goal ∪ (through ∩ pre∃(Z))`` over ``domain``.

        Out-of-domain successors contribute through ``boundary`` (their
        final values).  ``through=None`` means "all states" (EF).
        """
        result: set[State] = set()
        queue: deque[State] = deque()

        def admit(state: State) -> None:
            if state not in result:
                result.add(state)
                queue.append(state)
                self.stats.fixpoint_work += 1

        for state in goal & domain:
            admit(state)
        if boundary:
            for state in domain:
                if state in result:
                    continue
                if through is not None and state not in through:
                    continue
                # boundary ⊆ complement of domain, so no domain test needed.
                if any(t in boundary for t in self._successors[state]):
                    admit(state)
        while queue:
            target = queue.popleft()
            for state in self._predecessors.get(target, ()):
                if state in result or state not in domain:
                    continue
                if through is not None and state not in through:
                    continue
                admit(state)
        return boundary | frozenset(result)

    def _solve_forall_reach(
        self,
        goal: frozenset[State],
        gate: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``lfp Z = goal ∪ (gate ∩ ¬δ ∩ pre∀(Z))`` over ``domain``."""
        result: set[State] = set(goal & domain)
        pending: dict[State, int] = {}
        queue: deque[State] = deque(result)
        self.stats.fixpoint_work += len(result)
        for state in domain:
            if state in result:
                continue
            if gate is not None and state not in gate:
                continue
            successors = self._successors[state]
            if not successors:
                continue  # deadlock: AF-style obligations fail here
            count = 0
            for target in successors:
                if target in domain:
                    count += 1  # decremented as in-domain targets are admitted
                elif target not in boundary:
                    count = -1  # an out-of-domain successor that never satisfies
                    break
            if count < 0:
                continue
            if count == 0:
                result.add(state)
                queue.append(state)
                self.stats.fixpoint_work += 1
            else:
                pending[state] = count
        while queue:
            target = queue.popleft()
            for state in self._predecessors.get(target, ()):
                count = pending.get(state)
                if count is None:
                    continue
                count -= 1
                if count == 0:
                    del pending[state]
                    result.add(state)
                    queue.append(state)
                    self.stats.fixpoint_work += 1
                else:
                    pending[state] = count
        return boundary | frozenset(result)

    def _solve_forall_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``gfp Z = keep ∩ pre∀(Z)`` over ``domain``, via the complement.

        A state violates ``AG keep`` iff it can reach — within the
        domain — a ``¬keep`` state or an out-of-domain successor whose
        fixed (boundary) value is unsatisfied, so only the *violating*
        region is ever traversed: when the invariant (mostly) holds,
        the solve is (nearly) free.  Deadlock states satisfy any
        invariant they locally satisfy, matching the maximal-path
        reading of ``pre∀``.  Callers pass the full state set as the
        domain (a global complement solve beats patching here because
        no per-edge scan of the surviving region is needed at all).
        """
        removed = set(domain - keep)
        queue: deque[State] = deque(removed)
        if boundary:
            good = domain | boundary
            for state in domain & keep:
                if state in removed:
                    continue
                if any(t not in good for t in self._successors[state]):
                    removed.add(state)
                    queue.append(state)
        self.stats.fixpoint_work += len(removed)
        while queue:
            state = queue.popleft()
            for pred in self._predecessors.get(state, ()):
                if pred not in removed and pred in domain:
                    removed.add(pred)
                    queue.append(pred)
                    self.stats.fixpoint_work += 1
        return boundary | ((keep & domain) - removed)

    def _solve_exists_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``gfp Z = keep ∩ (δ ∪ pre∃(Z))`` over ``domain``.

        As in :meth:`_solve_forall_invariant`, ``boundary`` and
        ``domain`` are disjoint, so support counting needs only one
        membership test per edge.
        """
        alive = set(keep & domain)
        good = alive | boundary if boundary else alive
        support: dict[State, int] = {}
        queue: deque[State] = deque()
        for state in alive:
            successors = self._successors[state]
            if not successors:
                continue  # deadlock: stays by the δ disjunct
            count = sum(1 for target in successors if target in good)
            if count == 0:
                queue.append(state)
            else:
                support[state] = count
        while queue:
            state = queue.popleft()
            if state not in alive:
                continue
            alive.discard(state)
            self.stats.fixpoint_work += 1
            for pred in self._predecessors.get(state, ()):
                if pred in alive and pred in support:
                    support[pred] -= 1
                    if support[pred] == 0:
                        del support[pred]
                        queue.append(pred)
        return boundary | frozenset(alive)


    def _fixpoint_region(self, formula: Formula) -> tuple[frozenset[State], frozenset[State]]:
        patch = self._patchable(formula)
        if patch is not None:
            self.stats.sat_patched += 1
            return patch
        self.stats.sat_computed += 1
        return self.automaton.states, frozenset()

    def _unbounded_unary(
        self, formula: Formula, operator: str, operand: frozenset[State]
    ) -> frozenset[State]:
        if operator == "AG":  # gfp Z = φ ∩ pre∀(Z)
            # The complement solve only traverses the violating region,
            # so a global solve is cheaper than an affected-region patch
            # (which would need a per-edge scan of the whole region).
            self.stats.sat_computed += 1
            with self.tracer.span(
                "checker.fixpoint", solve=operator, domain=len(self.automaton.states)
            ):
                return self._solve_forall_invariant(
                    operand, self.automaton.states, frozenset()
                )
        domain, boundary = self._fixpoint_region(formula)
        with self.tracer.span("checker.fixpoint", solve=operator, domain=len(domain)):
            if operator == "EF":  # lfp Z = φ ∪ pre∃(Z)
                return self._solve_exists_reach(operand, None, domain, boundary)
            if operator == "AF":  # lfp Z = φ ∪ (¬δ ∩ pre∀(Z))
                return self._solve_forall_reach(operand, None, domain, boundary)
            if operator == "EG":  # gfp Z = φ ∩ (δ ∪ pre∃(Z))
                return self._solve_exists_invariant(operand, domain, boundary)
        raise AssertionError(operator)

    def _unbounded_until(
        self,
        formula: Formula,
        left: frozenset[State],
        right: frozenset[State],
        *,
        universal: bool,
    ) -> frozenset[State]:
        domain, boundary = self._fixpoint_region(formula)
        solve = "AU" if universal else "EU"
        with self.tracer.span("checker.fixpoint", solve=solve, domain=len(domain)):
            if universal:  # lfp Z = ψ ∪ (φ ∩ ¬δ ∩ pre∀(Z))
                return self._solve_forall_reach(right, left, domain, boundary)
            return self._solve_exists_reach(right, left, domain, boundary)

    # --------------------------------------------------------- bounded cases

    def bounded_layers(
        self, operator: str, operand: frozenset[State], interval: Interval
    ) -> list[frozenset[State]]:
        """Backward DP layers for a bounded unary operator.

        ``layers[k]`` is the satisfaction set of the operator with the
        window shifted ``k`` steps into the past, i.e. with remaining
        window ``[max(low-k, 0), high-k]``.  ``layers[0]`` is the
        satisfaction set of the operator itself; deeper layers are used
        by the counterexample generator to steer failing paths.
        """
        memo_key = (operator, operand, interval.low, interval.high)
        cached = self._layer_memo.get(memo_key)
        if cached is None:
            cached = self._compute_layers(
                operator, operand, interval, self.automaton.states, None
            )
            self._layer_memo[memo_key] = cached
        return cached

    def _layers_for(
        self, formula: Formula, operator: str, operand: frozenset[State], interval: Interval
    ) -> list[frozenset[State]]:
        """Formula-keyed layers, patched from the warm checker if possible."""
        key = (formula, interval.low, interval.high)
        cached = self._formula_layers.get(key)
        if cached is not None:
            return cached
        warm_layers = self._warm.layers.get(key) if self._warm is not None else None
        if warm_layers is not None:
            domain = self._warm.affected
            self.stats.sat_patched += 1
            layers = self._compute_layers(operator, operand, interval, domain, warm_layers)
        else:
            self.stats.sat_computed += 1
            layers = self._compute_layers(operator, operand, interval, self.automaton.states, None)
        self._formula_layers[key] = layers
        memo_key = (operator, operand, interval.low, interval.high)
        self._layer_memo.setdefault(memo_key, layers)
        return layers

    def _compute_layers(
        self,
        operator: str,
        operand: frozenset[State],
        interval: Interval,
        domain: frozenset[State],
        warm_layers: "list[frozenset[State]] | None",
    ) -> list[frozenset[State]]:
        with self.tracer.span(
            "checker.bounded",
            solve=operator,
            domain=len(domain),
            window=interval.high - interval.low,
        ):
            return self._compute_layers_inner(operator, operand, interval, domain, warm_layers)

    def _compute_layers_inner(
        self,
        operator: str,
        operand: frozenset[State],
        interval: Interval,
        domain: frozenset[State],
        warm_layers: "list[frozenset[State]] | None",
    ) -> list[frozenset[State]]:
        low, high = interval.low, interval.high
        unaffected = self._warm.unaffected if warm_layers is not None and self._warm else frozenset()

        def active(k: int) -> bool:  # is position k inside the window?
            return max(low - k, 0) == 0

        layers: list[frozenset[State]] = [frozenset()] * (high + 1)
        for k in range(high, -1, -1):
            satisfied: set[State] = set()
            last = k == high
            for state in domain:
                here = state in operand
                successors = self._successors[state]
                if operator == "AF":
                    if active(k) and here:
                        ok = True
                    elif last or not successors:
                        ok = False
                    else:
                        ok = all(t in layers[k + 1] for t in successors)
                elif operator == "EF":
                    if active(k) and here:
                        ok = True
                    elif last:
                        ok = False
                    else:
                        ok = any(t in layers[k + 1] for t in successors)
                elif operator == "AG":
                    ok = (not active(k) or here) and (
                        last or all(t in layers[k + 1] for t in successors)
                    )
                elif operator == "EG":
                    ok = (not active(k) or here) and (
                        last or not successors or any(t in layers[k + 1] for t in successors)
                    )
                else:
                    raise AssertionError(operator)
                if ok:
                    satisfied.add(state)
                self.stats.fixpoint_work += 1
            layer = frozenset(satisfied)
            if warm_layers is not None:
                layer |= warm_layers[k] & unaffected
            layers[k] = layer
        return layers

    def _bounded_until(
        self,
        formula: Formula,
        left: frozenset[State],
        right: frozenset[State],
        interval: Interval,
        *,
        universal: bool,
    ) -> frozenset[State]:
        key = (formula, interval.low, interval.high)
        cached = self._formula_layers.get(key)
        if cached is not None:
            return cached[0]
        warm_layers = self._warm.layers.get(key) if self._warm is not None else None
        if warm_layers is not None:
            domain = self._warm.affected
            unaffected = self._warm.unaffected
            self.stats.sat_patched += 1
        else:
            domain = self.automaton.states
            unaffected = frozenset()
            self.stats.sat_computed += 1
        low, high = interval.low, interval.high
        solve = "AU" if universal else "EU"
        layers: list[frozenset[State]] = [frozenset()] * (high + 1)
        with self.tracer.span(
            "checker.bounded", solve=solve, domain=len(domain), window=high - low
        ):
            for k in range(high, -1, -1):
                satisfied: set[State] = set()
                last = k == high
                for state in domain:
                    window_open = max(low - k, 0) == 0
                    if window_open and state in right:
                        satisfied.add(state)
                        continue
                    if last or state not in left:
                        continue
                    successors = self._successors[state]
                    if universal:
                        if successors and all(t in layers[k + 1] for t in successors):
                            satisfied.add(state)
                    else:
                        if any(t in layers[k + 1] for t in successors):
                            satisfied.add(state)
                    self.stats.fixpoint_work += 1
                layer = frozenset(satisfied)
                if warm_layers is not None:
                    layer |= warm_layers[k] & unaffected
                layers[k] = layer
        self._formula_layers[key] = layers
        return layers[0]


def check(automaton: Automaton, formula: Formula) -> CheckResult:
    """One-shot convenience wrapper around :class:`ModelChecker`."""
    return ModelChecker(automaton).check(formula)
