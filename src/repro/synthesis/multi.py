"""Multiple legacy components: the paper's §7 extension, implemented.

    "The approach can, however, be extended to multiple legacy
    components, by using the parallel combination of multiple
    behavioral models.  The iterative synthesis will then improve all
    these models in parallel."  (§7)

:class:`MultiLegacySynthesizer` verifies the composition of an
(optional) modeled context with one chaotic closure *per* legacy
component, and on a counterexample projects it onto every component,
tests each projection, and learns into all models in parallel.  The
soundness story is unchanged: each closure is a safe abstraction of its
component (Theorem 1), refinement is a precongruence for ``∥``
(Lemma 2), so Lemma 5 lifts to the n-ary composition.

The deadlock-testing step generalises §4.2's probing: after confirming
the prefix on every component, each component's *local reaction table*
at its current state is completed by probing every input set of its
alphabet (deterministic components make each probe exact after a prefix
re-run); a real deadlock is declared iff no joint step can be assembled
from the context's offers and the probed reactions.

The paper "can currently provide no experience whether such a parallel
learning is beneficial" and conjectures that the benefit depends on
"the degree in which the known context restricts their interaction" —
``benchmarks/bench_multi_legacy.py`` measures exactly that.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass

from ..automata.automaton import Automaton, State
from ..automata.incomplete import IncompleteAutomaton
from ..automata.interaction import InteractionUniverse
from ..automata.runs import Run
from ..errors import LearningError, SynthesisError
from ..legacy.component import LegacyComponent
from ..legacy.interface import interface_of

# The loop's layer entry points, resolved through this module by the
# driver (see ``_LoopDriver._layers``).
from ..logic.counterexample import counterexample, counterexamples  # noqa: F401
from ..logic.formulas import Formula
from ..testing.executor import TestVerdict
from ..testing.replay import replay  # noqa: F401
from ..testing.robust import RobustExecution
from ..testing.testcase import TestCase, TestStep
from .driver import HOST_FAILURES, Verdict, _Check, _IterationScratch, _LoopDriver, _Slot
from .initial import StateLabeler, initial_model
from .learning import RefusalMode, learn_blocked, learn_regular, refuse  # noqa: F401
from .settings import SynthesisSettings

__all__ = ["MultiLegacySynthesizer", "MultiSynthesisResult", "MultiIterationRecord"]

#: Default iteration budget of :class:`MultiLegacySynthesizer` (higher
#: than the single-placement default: n models learn in parallel).
DEFAULT_MULTI_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class MultiIterationRecord:
    """Per-iteration observations of the parallel loop."""

    index: int
    model_sizes: tuple[tuple[int, int, int], ...]  # (states, T, T̄) per component
    composed_states: int
    property_holds: bool
    deadlock_free: bool
    violated: str | None
    counterexample: Run | None
    fast_conflict: bool
    tests_executed: int
    components_learned: tuple[str, ...]
    knowledge_gained: int
    # Incremental-engine counters.
    closure_groups_reused: int = 0
    closure_groups_rebuilt: int = 0
    product_hits: int = 0
    product_misses: int = 0
    dirty_states: int = 0
    affected_states: int = 0
    #: Worklist operations the checker spent on this iteration's fixpoints.
    checker_fixpoint_work: int = 0
    # Robust-execution counters (all zero on a fault-free run with the
    # default retry policy).
    test_retries: int = 0
    test_timeouts: int = 0
    tests_inconclusive: int = 0
    quarantine_size: int = 0


@dataclass(frozen=True)
class MultiSynthesisResult:
    """Outcome of a parallel synthesis run."""

    verdict: Verdict
    property: Formula
    iterations: tuple[MultiIterationRecord, ...]
    final_models: dict[str, IncompleteAutomaton]
    violation_witness: Run | None
    violation_kind: str | None
    #: Counterexamples whose tests never completed fault-free within the
    #: retry budget (see :mod:`repro.testing.robust`).  Empty on every
    #: fault-free run; never merged, never confirmed (Lemma 6).
    quarantined: tuple[Run, ...] = ()

    @property
    def proven(self) -> bool:
        return self.verdict is Verdict.PROVEN

    def require_proven(self) -> "MultiSynthesisResult":
        """Raise unless the verdict is ``PROVEN``; returns ``self``."""
        from ..errors import BudgetExceededError

        if self.verdict is Verdict.PROVEN:
            return self
        if self.verdict is Verdict.BUDGET_EXCEEDED:
            raise BudgetExceededError(
                f"multi-legacy synthesis exhausted its budget after "
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

    def learned_states(self, name: str) -> int:
        return len(self.final_models[name].states)


class MultiLegacySynthesizer(_LoopDriver):
    """Parallel iterative synthesis for several legacy components.

    Parameters
    ----------
    context:
        Optional modeled context automaton (``None`` when the legacy
        components only interact with each other, as in a two-shuttle
        convoy where both controllers are third-party code).
    components:
        The legacy components.  Their names must be unique; signal sets
        must be pairwise composable.
    property:
        The compositional constraint to establish, in addition to
        deadlock freedom.
    labelers:
        Optional per-component state labelers, keyed by component name.
    settings:
        The consolidated loop-tuning knobs
        (:class:`~repro.synthesis.settings.SynthesisSettings`), shared
        with :class:`~repro.synthesis.iterate.IntegrationSynthesizer`.
        A ``counterexamples_per_iteration`` above 1 tests and learns
        from extra counterexamples of each failed check on top of the
        primary one.
    """

    _synthesizer = "MultiLegacySynthesizer"
    _layers = sys.modules[__name__]
    _product_name = "multi-closure"
    _scoped_metrics = True

    def __init__(
        self,
        context: Automaton | None,
        components: Sequence[LegacyComponent],
        property: Formula,
        *,
        universes: dict[str, InteractionUniverse] | None = None,
        labelers: dict[str, StateLabeler] | None = None,
        refusal_mode: RefusalMode = "deterministic",
        fast_conflict: bool = True,
        settings: SynthesisSettings | None = None,
        port: str = "port",
    ):
        if not components:
            raise SynthesisError("MultiLegacySynthesizer needs at least one legacy component")
        names = [component.name for component in components]
        if len(set(names)) != len(names):
            raise SynthesisError(f"legacy component names must be unique, got {names}")
        super().__init__(
            context,
            property,
            settings,
            default_iterations=DEFAULT_MULTI_MAX_ITERATIONS,
            refusal_mode=refusal_mode,
            fast_conflict=fast_conflict,
            semantics="open",
            counterexample_strategy=None,
            port=port,
        )
        universes = universes or {}
        labelers = labelers or {}
        offset = 1 if context is not None else 0
        slots: list[_Slot] = []
        for position, component in enumerate(components):
            # One supervised subprocess (or fault wrapper) per slot.
            component = self._prepare(component, position)
            interface = interface_of(component)
            labeler = labelers.get(component.name)
            slots.append(
                _Slot(
                    component=component,
                    universe=universes.get(component.name, interface.universe()),
                    labeler=labeler,
                    model=initial_model(interface, labeler=labeler),
                    index=offset + position,
                )
            )
        self._adopt(slots)
        self._chaos_names = [f"chaos({slot.name})" for slot in slots]
        self._validate_signals()

    def _validate_signals(self) -> None:
        parts: list[tuple[str, frozenset[str], frozenset[str]]] = []
        if self.context is not None:
            parts.append(("context", self.context.inputs, self.context.outputs))
        for slot in self.slots:
            parts.append((slot.name, slot.component.inputs, slot.component.outputs))
        for i, (name_a, in_a, out_a) in enumerate(parts):
            for name_b, in_b, out_b in parts[i + 1 :]:
                if in_a & in_b or out_a & out_b:
                    raise SynthesisError(
                        f"{name_a!r} and {name_b!r} are not composable: shared "
                        f"inputs {sorted(in_a & in_b)} / outputs {sorted(out_a & out_b)}"
                    )

    # Each synthesizer defines its own ``run`` entry point: the documented
    # result type, and the attribute outside-in profilers rebind.
    def run(self) -> MultiSynthesisResult:
        """Execute the parallel loop until proof, real violation, or budget."""
        return super().run()

    # ---------------------------------------------------------------- policy

    def _loop_info(self) -> dict:
        return {"components": [slot.name for slot in self.slots]}

    def _closure_names(self, index: int) -> list[str]:
        return self._chaos_names

    def _project_case(self, cex: Run, slot: _Slot) -> TestCase:
        if self._bare:
            steps = [TestStep(i.inputs, i.outputs) for i, _ in cex.steps]
            if cex.blocked is not None:
                steps.append(TestStep(cex.blocked.inputs, cex.blocked.outputs))
            return TestCase(name=f"{slot.name}-test", steps=tuple(steps), source_run=cex)
        projected = cex.project(
            slot.index, slot.component.inputs, slot.component.outputs
        )
        steps = [TestStep(i.inputs, i.outputs) for i, _ in projected.steps]
        if projected.blocked is not None:
            steps.append(TestStep(projected.blocked.inputs, projected.blocked.outputs))
        return TestCase(name=f"{slot.name}-test", steps=tuple(steps), source_run=cex)

    # ---------------------------------------------------- deadlock handling

    def _reaction_table(
        self, slot: _Slot, prefix: TestCase, scratch: _IterationScratch
    ) -> dict[frozenset[str], frozenset[str] | None] | None:
        """Probe every input set at the component's post-prefix state.

        Re-runs the (deterministic, already confirmed) prefix once per
        probe.  Returns ``inputs → outputs`` with ``None`` for refused
        inputs, and merges every observation into the model.  Returns
        ``None`` when any probe came back inconclusive — the deadlock is
        then undecided and the caller must quarantine it, not confirm it.
        """
        input_sets = sorted({interaction.inputs for interaction in slot.universe}, key=sorted)
        table: dict[frozenset[str], frozenset[str] | None] = {}
        for inputs in input_sets:
            probe = TestCase(
                name=f"{prefix.name}+probe",
                steps=(*prefix.steps, TestStep(inputs, frozenset())),
            )
            outcome = self._execute(slot, probe, scratch)
            if outcome.inconclusive:
                return None
            execution = outcome.execution
            if execution.divergence_index is not None and execution.divergence_index < len(
                prefix.steps
            ):
                raise SynthesisError(
                    f"component {slot.name!r} did not reproduce its confirmed prefix — "
                    "it is not deterministic"
                )
            last = execution.recording.steps[-1]
            table[inputs] = None if last.blocked else last.observed_outputs
            self._learn_probe(slot, outcome, scratch)
        return table

    def _learn_probe(
        self, slot: _Slot, outcome: RobustExecution, scratch: _IterationScratch
    ) -> None:
        observed = self._outcome_replay(slot, outcome, scratch).observed_run
        with self.tracer.span("learn.merge", verdict="probe"):
            if observed.blocked is not None:
                try:
                    slot.model = learn_blocked(
                        slot.model,
                        observed,
                        labeler=slot.labeler,
                        mode=self.refusal_mode,
                        universe=slot.universe,
                        observed_outputs=None,
                    )
                except LearningError:
                    # The refusal was already known (the probe revisited a
                    # decided input); merge the regular prefix only.
                    slot.model = learn_regular(
                        slot.model, Run(observed.start, observed.steps), labeler=slot.labeler
                    )
            else:
                slot.model = learn_regular(slot.model, observed, labeler=slot.labeler)

    def _joint_step_exists(
        self,
        context_state: State | None,
        tables: list[dict[frozenset[str], frozenset[str] | None]],
    ) -> bool:
        """Can a synchronous step be assembled in the real system?

        Enumerates the context's offers (or an idle placeholder when
        there is no context) against every combination of probed
        reactions, requiring each party's inputs to equal exactly what
        the other parties emit towards it.
        """
        from itertools import product as iproduct

        if self.context is not None and context_state is not None:
            offers = [
                (t.interaction.inputs, t.interaction.outputs)
                for t in self.context.transitions_from(context_state)
            ]
            if not offers:
                return False
        else:
            offers = [(frozenset(), frozenset())]

        slot_inputs = [sorted(table) for table in tables]
        for offer_inputs, offer_outputs in offers:
            for combo in iproduct(*slot_inputs):
                outputs = [offer_outputs]
                reactions = []
                feasible = True
                for table, inputs in zip(tables, combo):
                    reaction = table[inputs]
                    if reaction is None:
                        feasible = False
                        break
                    reactions.append(reaction)
                    outputs.append(reaction)
                if not feasible:
                    continue
                # Check every party consumes exactly what the others emit.
                all_outputs = frozenset().union(*outputs)
                if self.context is not None:
                    expected = all_outputs & self.context.inputs
                    if offer_inputs != expected:
                        continue
                ok = True
                for slot, inputs in zip(self.slots, combo):
                    emitted_to_slot = frozenset()
                    for other_output in outputs:
                        emitted_to_slot |= other_output & slot.component.inputs
                    # Remove what the slot itself emitted (outputs are
                    # pairwise disjoint from its own inputs anyway).
                    if inputs != emitted_to_slot:
                        ok = False
                        break
                if ok:
                    return True
        return False

    # ------------------------------------------------------------ test and learn

    def _test_and_learn(self, check, violated, batch, scratch):
        """Test the primary counterexample on every slot, then the extras.

        Verdict decisions rest on the primary counterexample.  Extra
        batch counterexamples — and quarantined runs from earlier
        iterations — contribute test/learn material only; probing
        candidates among them are skipped (their confirmation protocol
        is the expensive primary-path one).
        """
        composed = check.composed
        cex = batch[0]
        chaos_free = self._chaos_free(cex)
        needs_probing = self._needs_probing(composed, violated, cex)
        learned = scratch.learned
        all_confirmed = trusted = True
        for slot in self.slots:
            outcome = self._execute_supervised(
                slot, self._project_case(cex, slot), scratch, quarantine_run=cex, probe=False
            )
            if outcome is None:
                # Undecided on this component, so undecided overall:
                # quarantined for a later retry, nothing learned (Lemma 6).
                all_confirmed = False
                continue
            if not self._trusted(slot, outcome):
                trusted = False
            if outcome.execution.verdict is TestVerdict.CONFIRMED:
                if chaos_free:
                    continue
            else:
                all_confirmed = False
            try:
                if self._learn_execution(slot, outcome, scratch):
                    learned.append(slot.name)
            except LearningError:
                # A falsely validated recording poisoned the model
                # earlier; under chaos the contradiction is injection
                # noise, not component non-determinism.
                if not self._absorb_learning_error(slot, cex, scratch, probe=False):
                    raise
                all_confirmed = False
            except HOST_FAILURES:
                all_confirmed = False
                self._undecided(cex, scratch, probe=False)

        extras: list[tuple[Run, bool]] = [(candidate, True) for candidate in batch[1:]]
        fresh = {repr(candidate) for candidate in batch}
        extras.extend(
            (run, False) for run, _ in self.quarantine.drain() if repr(run) not in fresh
        )
        for candidate, from_batch in extras:
            if candidate is cex:
                continue
            if from_batch and self._needs_probing(composed, violated, candidate):
                continue
            self._learn_extra(candidate, scratch)

        real = False
        if all_confirmed:
            if needs_probing:
                tables = []
                for slot in self.slots:
                    table = self._reaction_table(slot, self._project_case(cex, slot), scratch)
                    if table is None:
                        # A probe came back inconclusive: the deadlock is
                        # neither confirmed nor refuted.  Quarantine.
                        self._quarantine_push(cex, probe=True)
                        break
                    tables.append(table)
                    learned.append(slot.name)
                else:
                    context_state = cex.last_state[0] if self.context is not None else None
                    real = not self._joint_step_exists(context_state, tables)
            elif chaos_free:
                real = True
        if real and not trusted:
            # Lemma 6: an unvalidated execution cannot witness a real
            # integration error; retry the candidate instead.
            self._quarantine_push(cex, probe=False)
            real = False
        return cex, real

    def _learn_extra(self, candidate: Run, scratch: _IterationScratch) -> None:
        """Test an extra counterexample on every slot and learn from it.

        Executions run slot by slot, then the monitor replays run as one
        batch, then the observations are merged.
        """
        chaos_free = self._chaos_free(candidate)
        staged: list[tuple[_Slot, RobustExecution]] = []
        for slot in self.slots:
            case = self._project_case(candidate, slot)
            outcome = self._execute_supervised(
                slot, case, scratch, quarantine_run=candidate, probe=False
            )
            if outcome is None:
                continue
            if outcome.execution.verdict is TestVerdict.CONFIRMED and chaos_free:
                continue
            staged.append((slot, outcome))
        try:
            replayed = self._batch_replays(
                [
                    (position, slot, outcome.execution.recording)
                    for position, (slot, outcome) in enumerate(staged)
                    if outcome.replay is None
                ],
                scratch,
            )
        except HOST_FAILURES:
            # A host died during the replays: learning material only, so
            # retry it later against a fresh host.
            self._undecided(candidate, scratch, probe=False)
            return
        for position, (slot, outcome) in enumerate(staged):
            try:
                replay_result = replayed.get(position, outcome.replay)
                if self._learn_execution(slot, outcome, scratch, replay_result):
                    scratch.learned.append(slot.name)
            except LearningError:
                continue  # contradicts what an earlier candidate merged: skip
            except HOST_FAILURES:
                self._undecided(candidate, scratch, probe=False)

    # ----------------------------------------------------------------- reports

    def _record(self, check: _Check, violated, cex, scratch: _IterationScratch, fast, gained):
        return MultiIterationRecord(
            check.index,
            tuple(
                (len(slot.model.states), len(slot.model.transitions), len(slot.model.refusals))
                for slot in self.slots
            ),
            len(check.composed.states),
            check.property_holds,
            check.deadlock_free,
            violated,
            cex,
            fast,
            scratch.tests,
            tuple(dict.fromkeys(scratch.learned)),
            gained,
            **self._counters(check, scratch),
        )

    def _result(self, verdict, records, check, witness, kind) -> MultiSynthesisResult:
        return MultiSynthesisResult(
            verdict=verdict,
            property=self.property,
            iterations=tuple(records),
            final_models={slot.name: slot.model for slot in self.slots},
            violation_witness=witness,
            violation_kind=kind,
            quarantined=self.quarantine.unresolved(),
        )
