"""Iterative behavior synthesis: the paper's core loop (§4, Figure 2).

Each iteration performs the three steps of the scheme:

1. **Verify** (§4.1): model-check ``M_a^c ∥ chaos(M_l^i) ⊨ φ_weak ∧ ¬δ``
   where ``φ_weak`` is the §2.7 chaos weakening of the required
   property.  Success proves ``M_r^c ∥ M_r ⊨ φ`` (Lemma 5) — done.
2. **Test** (§4.2): otherwise the counterexample, projected onto the
   legacy component, is executed against the real component.  A
   counterexample whose legacy projection never visits the chaotic
   states is a *conflict in the synthesized part* and proves a real
   integration error without any test ("fast conflict detection",
   Listing 1.4).  A confirmed test of a chaos-visiting property
   counterexample is *not* yet proof (§4.2: such a run "is not really a
   possible run of ``M_r^c ∥ M_r``" because the concrete system has no
   chaos states) — it is learning material.  Deadlock counterexamples
   are confirmed by *probing*: after driving the component down the
   prefix, every interaction the context offers in the deadlocked
   configuration is attempted; only if none is served is the deadlock
   real.
3. **Learn** (§4.3): observed behavior — reactions, divergences,
   refusals — is merged into ``M_l^{i+1}`` via Definitions 11/12 (plus
   the deterministic refusal extension), and the loop repeats.

Termination (§4.4): every non-final iteration strictly increases
``|T| + |T̄|``, which is bounded for a finite deterministic component,
so the loop always ends in ``PROVEN`` or ``REAL_VIOLATION`` (the
``max_iterations`` budget is a safety net, not a semantic limit).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

from ..automata.automaton import Automaton, State
from ..automata.composition import Semantics
from ..automata.incomplete import IncompleteAutomaton
from ..automata.interaction import Interaction, InteractionUniverse
from ..automata.runs import Run
from ..errors import LearningError, SynthesisError
from ..legacy.component import LegacyComponent
from ..legacy.interface import InterfaceDescription, interface_of
from ..logic.checker import ModelChecker

# The loop's layer entry points, resolved through this module by the
# driver (see ``_LoopDriver._layers``).
from ..logic.counterexample import counterexample, counterexamples  # noqa: F401
from ..logic.formulas import Formula
from ..testing.executor import TestVerdict
from ..testing.replay import replay  # noqa: F401
from ..testing.robust import RobustExecution
from ..testing.testcase import TestCase, TestStep, test_case_from_counterexample
from .driver import HOST_FAILURES, Verdict, _Check, _IterationScratch, _LoopDriver, _Slot
from .initial import StateLabeler, initial_model
from .learning import RefusalMode, learn_blocked, learn_regular, refuse  # noqa: F401
from .settings import SynthesisSettings

__all__ = [
    "Verdict",
    "IterationRecord",
    "SynthesisResult",
    "IntegrationSynthesizer",
    "CounterexampleStrategy",
    "SynthesisSettings",
]

#: Default iteration budget of :class:`IntegrationSynthesizer`.
DEFAULT_MAX_ITERATIONS = 500

#: Hook for custom counterexample selection (the paper's conclusion notes
#: that counterexample strategies are a tuning point).  Receives the
#: composed automaton, the violated formula, and a ready checker; must
#: return a violating run of the composition.
CounterexampleStrategy = Callable[[Automaton, Formula, ModelChecker], Run]


@dataclass(frozen=True)
class IterationRecord:
    """Everything observed during one iteration of the loop."""

    index: int
    model_states: int
    model_transitions: int
    model_refusals: int
    closure_states: int
    closure_transitions: int
    composed_states: int
    property_holds: bool
    deadlock_free: bool
    violated: str | None  # "property" | "deadlock" | None
    counterexample: Run | None
    fast_conflict: bool
    test_verdict: TestVerdict | None
    tests_executed: int
    replays_executed: int
    observed_run: Run | None
    knowledge_gained: int
    # Incremental-engine counters.
    closure_groups_reused: int = 0
    closure_groups_rebuilt: int = 0
    product_hits: int = 0
    product_misses: int = 0
    dirty_states: int = 0
    affected_states: int = 0
    #: Worklist operations the checker spent on this iteration's fixpoints
    #: (warm starts should show less work).
    checker_fixpoint_work: int = 0
    # Robust-execution counters (all zero on a fault-free run with the
    # default retry policy).  ``tests_executed`` counts live attempts,
    # so ``tests_executed - test_retries`` is the number of supervised
    # executions this iteration.
    test_retries: int = 0
    test_timeouts: int = 0
    tests_inconclusive: int = 0
    quarantine_size: int = 0


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a full synthesis run."""

    verdict: Verdict
    property: Formula
    iterations: tuple[IterationRecord, ...]
    final_model: IncompleteAutomaton
    final_closure: Automaton | None
    violation_witness: Run | None
    violation_kind: str | None
    #: Counterexamples whose tests never completed fault-free within the
    #: retry budget (see :mod:`repro.testing.robust`).  Empty on every
    #: fault-free run.  They were *not* merged into the model and were
    #: *not* confirmed as real errors (Lemma 6 requires a validated
    #: fault-free run) — they are reported here instead of being
    #: silently dropped.
    quarantined: tuple[Run, ...] = ()

    @property
    def proven(self) -> bool:
        return self.verdict is Verdict.PROVEN

    def require_proven(self) -> "SynthesisResult":
        """Raise unless the verdict is ``PROVEN`` (for CI-style use).

        ``BudgetExceededError`` for an exhausted iteration budget,
        ``SynthesisError`` carrying the violation kind otherwise;
        returns ``self`` so it chains: ``synthesizer.run().require_proven()``.
        """
        from ..errors import BudgetExceededError

        if self.verdict is Verdict.PROVEN:
            return self
        if self.verdict is Verdict.BUDGET_EXCEEDED:
            raise BudgetExceededError(
                f"synthesis exhausted its iteration budget after "
                f"{self.iteration_count} iterations"
            )
        raise SynthesisError(
            f"integration violates the requirements ({self.violation_kind}); "
            f"witness: {self.violation_witness}"
        )

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    @property
    def total_tests(self) -> int:
        return sum(record.tests_executed for record in self.iterations)

    @property
    def total_replays(self) -> int:
        return sum(record.replays_executed for record in self.iterations)

    @property
    def total_test_retries(self) -> int:
        return sum(record.test_retries for record in self.iterations)

    @property
    def total_test_timeouts(self) -> int:
        return sum(record.test_timeouts for record in self.iterations)

    @property
    def total_inconclusive(self) -> int:
        return sum(record.tests_inconclusive for record in self.iterations)

    @property
    def learned_states(self) -> int:
        return self.final_model.automaton.states.__len__()

    @property
    def learned_transitions(self) -> int:
        return len(self.final_model.transitions)

    @property
    def learned_refusals(self) -> int:
        return len(self.final_model.refusals)


class IntegrationSynthesizer(_LoopDriver):
    """Drives the verify → test → learn loop for one legacy placement.

    Parameters
    ----------
    context:
        The context abstraction ``M_a^c`` (typically produced by
        :meth:`repro.muml.Architecture.context_for` or by unfolding the
        partner role's statechart).
    component:
        The executable legacy component (``M_r`` behind the harness).
    property:
        The required compositional constraint ``φ``.  Deadlock freedom
        ``¬δ`` is always checked in addition, per §4.1.
    universe:
        The interaction alphabet of the legacy interface; defaults to
        the message-passing alphabet induced by the interface.
    labeler:
        Maps observed legacy state identifiers to atomic propositions
        so learned states participate in ``φ``.
    refusal_mode:
        ``"deterministic"`` (default) exploits strong determinism to
        refuse wholesale; ``"conservative"`` follows Definition 12
        literally.
    fast_conflict:
        Enable §4.2's shortcut: a property counterexample confined to
        the synthesized (non-chaotic) part proves a real conflict
        without testing.
    settings:
        The consolidated loop-tuning knobs
        (:class:`~repro.synthesis.settings.SynthesisSettings`):
        iteration budget, counterexample batching, test supervision,
        remote execution, and observability.
    initial_knowledge:
        Warm-start the series from a previously learned model instead of
        the trivial ``M_l^0`` — e.g. the ``final_model`` of an earlier
        run against another property, or a model loaded via
        :mod:`repro.persistence`.  With ``validate_knowledge`` (default)
        the provided model is first checked against the live component:
        every transition is re-executed and every refusal re-attempted,
        so a stale model (the component was updated) is rejected instead
        of silently breaking the safe-abstraction invariant.
    """

    _synthesizer = "IntegrationSynthesizer"
    _layers = sys.modules[__name__]

    def __init__(
        self,
        context: Automaton,
        component: LegacyComponent,
        property: Formula,
        *,
        universe: InteractionUniverse | None = None,
        labeler: StateLabeler | None = None,
        refusal_mode: RefusalMode = "deterministic",
        fast_conflict: bool = True,
        settings: SynthesisSettings | None = None,
        composition_semantics: Semantics = "strict",
        counterexample_strategy: CounterexampleStrategy | None = None,
        initial_knowledge: IncompleteAutomaton | None = None,
        validate_knowledge: bool = True,
        port: str = "port",
    ):
        super().__init__(
            context,
            property,
            settings,
            default_iterations=DEFAULT_MAX_ITERATIONS,
            refusal_mode=refusal_mode,
            fast_conflict=fast_conflict,
            semantics=composition_semantics,
            counterexample_strategy=counterexample_strategy,
            port=port,
        )
        component = self._prepare(component, 0)
        self.component = component
        self.interface: InterfaceDescription = interface_of(component)
        self.universe = universe if universe is not None else self.interface.universe()
        self.labeler = labeler
        if context.inputs & self.interface.inputs or context.outputs & self.interface.outputs:
            raise SynthesisError(
                "context and legacy interface are not composable: they share "
                f"inputs {sorted(context.inputs & self.interface.inputs)} / "
                f"outputs {sorted(context.outputs & self.interface.outputs)}"
            )
        self.initial_knowledge = initial_knowledge
        if initial_knowledge is not None:
            self._check_knowledge_shape(initial_knowledge)
            if validate_knowledge:
                self._validate_knowledge(initial_knowledge)
        self._initial_model = (
            initial_knowledge
            if initial_knowledge is not None
            else initial_model(self.interface, labeler=labeler)
        )
        self._slot = _Slot(component, self.universe, labeler, self._initial_model, index=1)
        self._adopt([self._slot])

    # -------------------------------------------------------- prior knowledge

    def _check_knowledge_shape(self, knowledge: IncompleteAutomaton) -> None:
        if (
            knowledge.inputs != self.interface.inputs
            or knowledge.outputs != self.interface.outputs
        ):
            raise SynthesisError(
                f"initial knowledge has signals I={sorted(knowledge.inputs)}/"
                f"O={sorted(knowledge.outputs)} but the component's interface is "
                f"I={sorted(self.interface.inputs)}/O={sorted(self.interface.outputs)}"
            )
        if knowledge.initial != frozenset({self.interface.initial_state}):
            raise SynthesisError(
                f"initial knowledge starts in {sorted(map(repr, knowledge.initial))} but the "
                f"component's initial state is {self.interface.initial_state!r}"
            )
        if not knowledge.is_deterministic():
            raise SynthesisError("initial knowledge must be deterministic (§2.6)")

    def _validate_knowledge(self, knowledge: IncompleteAutomaton) -> None:
        """Re-execute the knowledge against the live component.

        Every transition is driven via a covering run and every refusal
        re-attempted, so the model is observation-conforming when this
        returns — the precondition of Theorem 1.
        """
        from ..automata.analysis import transition_cover_runs

        for run in transition_cover_runs(knowledge.automaton):
            self.component.reset()
            current_expected = run.start
            for interaction, target in run.steps:
                outcome = self.component.step(interaction.inputs)
                if outcome.blocked or outcome.outputs != interaction.outputs:
                    raise SynthesisError(
                        f"stale initial knowledge: transition "
                        f"{current_expected!r} --{interaction}--> {target!r} is not "
                        "reproducible on the component"
                    )
                current_expected = target
        for refusal in sorted(
            knowledge.refusals, key=lambda r: (repr(r.state), r.interaction.sort_key())
        ):
            prefix = self._run_to_state(knowledge, refusal.state)
            if prefix is None:
                continue  # unreachable knowledge state: harmless
            self.component.reset()
            for interaction, _ in prefix.steps:
                self.component.step(interaction.inputs)
            outcome = self.component.step(refusal.interaction.inputs)
            if not outcome.blocked and outcome.outputs == refusal.interaction.outputs:
                raise SynthesisError(
                    f"stale initial knowledge: refusal of {refusal.interaction} at "
                    f"{refusal.state!r} contradicts the component's actual reaction"
                )

    @staticmethod
    def _run_to_state(knowledge: IncompleteAutomaton, state):
        from ..automata.analysis import shortest_run_to

        return shortest_run_to(knowledge.automaton, lambda s: s == state)

    # Each synthesizer defines its own ``run`` entry point: the documented
    # result type, and the attribute outside-in profilers rebind.
    def run(self) -> SynthesisResult:
        """Execute the loop until proof, real violation, or budget."""
        return super().run()

    # ---------------------------------------------------------------- policy

    def _run(self) -> SynthesisResult:
        self._slot.model = self._initial_model  # every run starts from M_l^0
        return super()._run()

    def _closure_names(self, index: int) -> list[str]:
        return [f"M_a^{index}"]

    def _record(self, check: _Check, violated, cex, scratch: _IterationScratch, fast, gained):
        model = self._slot.model
        closure = check.closures[0]
        return IterationRecord(
            index=check.index,
            model_states=len(model.states),
            model_transitions=len(model.transitions),
            model_refusals=len(model.refusals),
            closure_states=len(closure.states),
            closure_transitions=closure.transition_count,
            composed_states=len(check.composed.states),
            property_holds=check.property_holds,
            deadlock_free=check.deadlock_free,
            violated=violated,
            counterexample=cex,
            fast_conflict=fast,
            test_verdict=scratch.test_verdict,
            tests_executed=scratch.tests,
            replays_executed=scratch.replays,
            observed_run=scratch.observed,
            knowledge_gained=gained,
            **self._counters(check, scratch),
        )

    def _result(self, verdict, records, check, witness, kind) -> SynthesisResult:
        return SynthesisResult(
            verdict=verdict,
            property=self.property,
            iterations=tuple(records),
            final_model=self._slot.model,
            final_closure=check.closures[0] if check is not None else None,
            violation_witness=witness,
            violation_kind=kind,
            quarantined=self.quarantine.unresolved(),
        )

    def _test_and_learn(self, check, violated, batch, scratch):
        """Work through the batch and the quarantined counterexamples.

        The work list is the checker's batch plus every quarantined
        counterexample from earlier iterations (an inconclusive test is
        retried here, not forgotten).  Each entry carries its probing
        route: quarantined runs keep the route they were pushed with —
        they may reference stale composed states, and the probing
        decision only needs ``cex.last_state`` on the context side.
        """
        composed = check.composed
        work: list[tuple[Run, bool]] = [
            (candidate, self._needs_probing(composed, violated, candidate)) for candidate in batch
        ]
        fresh = {repr(candidate) for candidate in batch}
        work.extend(entry for entry in self.quarantine.drain() if repr(entry[0]) not in fresh)
        groupable = self.fast_conflict and violated == "property"
        position = 0
        while position < len(work):
            candidate, probing = work[position]
            group = [candidate]
            if groupable and not probing:
                # Maximal run of plain property counterexamples: safe to
                # execute all live first and batch the monitor replays
                # (none of them can confirm a real violation here — fast
                # conflict detection already returned for chaos-free
                # candidates, so all of these visit chaos and are pure
                # learning material).
                while position + len(group) < len(work) and not work[position + len(group)][1]:
                    group.append(work[position + len(group)][0])
            saved = self._slot.model  # an entry that raises merges nothing
            try:
                if len(group) > 1:
                    self._handle_property_batch(group, scratch, offset=position)
                elif not probing:
                    self._handle_property_counterexample(candidate, scratch)
                else:
                    self._handle_deadlock_counterexample(composed, candidate, scratch)
            except LearningError:
                # Past the first entry, a later counterexample went stale
                # mid-batch: skipping it is sound.
                self._slot.model = saved
                if not self._absorb_learning_error(self._slot, candidate, scratch, probe=probing):
                    if position == 0:
                        raise
            except HOST_FAILURES:
                self._slot.model = saved
                self._undecided(candidate, scratch, probe=probing)
            else:
                if scratch.real_violation:
                    return (scratch.violation if scratch.violation is not None else candidate), True
            position += len(group)
        return batch[0], False

    def _testcase(self, cex: Run) -> TestCase:
        return test_case_from_counterexample(
            cex,
            component_index=1,
            inputs=self.interface.inputs,
            outputs=self.interface.outputs,
        )

    # ------------------------------------------------- property counterexamples

    def _handle_property_counterexample(self, cex: Run, scratch: _IterationScratch) -> None:
        outcome = self._execute_supervised(
            self._slot, self._testcase(cex), scratch, quarantine_run=cex, probe=False
        )
        if outcome is not None:  # inconclusive: quarantined, nothing merged
            self._merge_property_outcome(cex, outcome, scratch)

    def _merge_property_outcome(
        self,
        cex: Run,
        outcome: RobustExecution,
        scratch: _IterationScratch,
        replay_result=None,
    ) -> None:
        if outcome.execution.verdict is TestVerdict.CONFIRMED and self._chaos_free(cex):
            # Only reachable with fast_conflict disabled: the violation
            # lives entirely in the synthesized part — a real conflict.
            if not self._trusted(self._slot, outcome):
                # Lemma 6: no CONFIRMED verdict without a validated
                # fault-free run.  Retry later instead of reporting.
                self._quarantine_push(cex, probe=False)
                return
            scratch.real_violation = True
            scratch.violation = cex
            return
        # §4.2: a chaos-visiting run is never a run of the concrete
        # system; the confirmed behavior is learning material instead.
        self._learn_execution(self._slot, outcome, scratch, replay_result)

    def _handle_property_batch(
        self, group: list[Run], scratch: _IterationScratch, *, offset: int
    ) -> None:
        """Test a run of plain property counterexamples with batched replays.

        All candidates are executed live first, their monitor replays
        then run in recorded order, and the observations are merged in
        the original candidate order.
        """
        slot = self._slot
        outcomes: list[tuple[int, Run, RobustExecution]] = []
        for index, cex in enumerate(group):
            outcome = self._execute_supervised(
                slot, self._testcase(cex), scratch, quarantine_run=cex, probe=False
            )
            if outcome is not None:
                outcomes.append((offset + index, cex, outcome))
        replayed = self._batch_replays(
            [
                (position, slot, outcome.execution.recording)
                for position, _, outcome in outcomes
                if outcome.replay is None
            ],
            scratch,
        )
        for position, cex, outcome in outcomes:
            try:
                self._merge_property_outcome(
                    cex, outcome, scratch, replayed.get(position, outcome.replay)
                )
            except LearningError:
                if not self._absorb_learning_error(slot, cex, scratch, probe=False):
                    if position == 0:
                        raise
                continue  # a later counterexample went stale mid-batch
            if scratch.real_violation:  # unreachable with fast_conflict on
                break

    # ------------------------------------------------- deadlock counterexamples

    def _context_offers(self, composed_state: State) -> list[tuple[frozenset[str], frozenset[str]]]:
        """The legacy-side interactions the context offers at a state.

        For each context transition ``(A_c, B_c)`` enabled in the
        deadlocked configuration, the legacy component would have to
        consume ``B_c ∩ I`` and produce ``A_c ∩ O`` to synchronize
        (Definition 3's matching condition, two-party case).
        """
        context_state = composed_state[0]
        offers: list[tuple[frozenset[str], frozenset[str]]] = []
        for transition in self.context.transitions_from(context_state):
            probe_inputs = transition.outputs & self.interface.inputs
            expected = transition.inputs & self.interface.outputs
            offers.append((probe_inputs, expected))
        return offers

    def _handle_deadlock_counterexample(
        self, composed: Automaton, cex: Run, scratch: _IterationScratch
    ) -> None:
        """Confirm or refute a composed deadlock by testing and probing."""
        slot = self._slot
        testcase = self._testcase(cex)
        outcome = self._execute_supervised(slot, testcase, scratch, quarantine_run=cex, probe=True)
        if outcome is None:
            return  # inconclusive: quarantined, nothing merged
        if outcome.execution.verdict is not TestVerdict.CONFIRMED:
            # The component already left the predicted path: pure learning.
            self._learn_execution(slot, outcome, scratch)
            return

        # The prefix is real.  The composition deadlocks in the final
        # configuration; whether the *system* deadlocks depends on whether
        # the real component serves any interaction the context offers.
        observed_prefix = self._outcome_replay(slot, outcome, scratch).observed_run
        scratch.observed = observed_prefix
        with self.tracer.span("learn.merge", verdict="confirmed-prefix"):
            slot.model = learn_regular(slot.model, observed_prefix, labeler=self.labeler)
        legacy_state = observed_prefix.last_state

        offers = self._context_offers(cex.last_state)
        if not offers:
            # The context itself is stuck: nothing the legacy component
            # does can unblock the system.
            if not self._trusted(slot, outcome):
                self._quarantine_push(cex, probe=True)
                return
            scratch.real_violation = True
            scratch.violation = cex
            return

        # Group offers by the inputs the legacy component would see.
        by_inputs: dict[frozenset[str], set[frozenset[str]]] = {}
        for probe_inputs, expected in offers:
            by_inputs.setdefault(probe_inputs, set()).add(expected)

        model = slot.model
        known = {t.interaction: t for t in model.automaton.transitions_from(legacy_state)}
        refused = model.refused(legacy_state)
        any_served = False
        for probe_inputs in sorted(by_inputs, key=sorted):
            expected_set = by_inputs[probe_inputs]
            known_reaction = next(
                (t for i, t in known.items() if i.inputs == probe_inputs), None
            )
            if known_reaction is not None:
                if known_reaction.interaction.outputs in expected_set:
                    # The deadlock was an artifact of the chaotic s_δ
                    # pessimism: the real component (whose state after the
                    # prefix is known by determinism) serves this offer.
                    any_served = True
                    break
                continue  # the known reaction cannot match: nothing to probe
            if self.refusal_mode == "deterministic" and any(
                refusal.inputs == probe_inputs for refusal in refused
            ):
                continue  # wholesale refusal already recorded for these inputs
            if self.refusal_mode == "conservative" and all(
                Interaction(probe_inputs, expected) in refused for expected in expected_set
            ):
                continue

            representative = sorted(expected_set, key=sorted)[0]
            probe_case = TestCase(
                name=f"{testcase.name}+probe",
                steps=(*testcase.steps, TestStep(probe_inputs, representative)),
                source_run=cex,
            )
            probe_outcome = self._execute_supervised(
                slot, probe_case, scratch, quarantine_run=None, probe=True
            )
            if probe_outcome is None:
                # This offer could not be decided fault-free: park the whole
                # counterexample (undecided, not confirmed) and retry the
                # probing in a later iteration.
                self._quarantine_push(cex, probe=True)
                return
            self._learn_execution(slot, probe_outcome, scratch)
            if probe_outcome.execution.verdict is TestVerdict.BLOCKED:
                continue
            observed = scratch.observed
            assert observed is not None and observed.steps
            reaction_outputs = observed.steps[-1][0].outputs
            if reaction_outputs in expected_set:
                any_served = True
                break  # the system does not deadlock here; re-verify

        if not any_served:
            undecided = False
            refreshed = slot.model.refused(legacy_state)
            known_now = {
                t.interaction for t in slot.model.automaton.transitions_from(legacy_state)
            }
            for probe_inputs, expected_set in by_inputs.items():
                has_known = any(i.inputs == probe_inputs for i in known_now)
                fully_refused = (
                    any(r.inputs == probe_inputs for r in refreshed)
                    if self.refusal_mode == "deterministic"
                    else all(
                        Interaction(probe_inputs, expected) in refreshed
                        for expected in expected_set
                    )
                )
                if not has_known and not fully_refused:
                    undecided = True
                    break
            if not undecided:
                matched = any(
                    interaction.inputs == probe_inputs
                    and interaction.outputs in expected_set
                    for probe_inputs, expected_set in by_inputs.items()
                    for interaction in known_now
                )
                if not matched:
                    scratch.real_violation = True
                    scratch.violation = cex
