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

import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..automata.automaton import Automaton, State
from ..automata.chaos import chaotic_closure, is_chaos_state
from ..automata.composition import compose_all
from ..automata.incomplete import IncompleteAutomaton
from ..automata.incremental import IncrementalVerifier
from ..automata.interaction import Interaction, InteractionUniverse
from ..automata.runs import Run
from ..errors import (
    FaultInjectionError,
    LearningError,
    RemoteComponentError,
    SynthesisError,
    TestTimeoutError,
)
from ..legacy.component import LegacyComponent
from ..legacy.interface import interface_of
from ..logic.checker import ModelChecker
from ..logic.compositional import assert_compositional, weaken_for_chaos
from ..logic.counterexample import counterexample, counterexamples
from ..logic.formulas import DEADLOCK_FREE, Formula
from ..automata.sharding import get_pool
from ..obs.metrics import publish_record
from ..obs.progress import ProgressEmitter
from ..obs.tracer import resolve_tracer
from ..testing.executor import TestVerdict
from ..testing.faults import FaultyComponent
from ..testing.replay import replay
from ..testing.robust import Quarantine, RobustExecution, RobustExecutor
from ..testing.testcase import TestCase, TestStep
from .initial import StateLabeler, initial_model
from .iterate import Verdict
from .learning import RefusalMode, learn_blocked, learn_regular, refuse
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
    # Incremental-engine counters (all zero when ``incremental=False``).
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


@dataclass
class _MultiScratch:
    """Mutable per-iteration counters of the parallel loop."""

    tests: int = 0
    retries: int = 0
    timeouts: int = 0
    inconclusive: int = 0


@dataclass
class _Slot:
    """Bookkeeping for one legacy component."""

    component: LegacyComponent
    universe: InteractionUniverse
    labeler: StateLabeler | None
    model: IncompleteAutomaton
    index: int  # position inside the composed tuple states

    @property
    def name(self) -> str:
        return self.component.name


class MultiLegacySynthesizer:
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
        assert_compositional(property)
        settings = settings if settings is not None else SynthesisSettings()
        if not components:
            raise SynthesisError("MultiLegacySynthesizer needs at least one legacy component")
        names = [component.name for component in components]
        if len(set(names)) != len(names):
            raise SynthesisError(f"legacy component names must be unique, got {names}")
        self.settings = settings
        self.tracer = resolve_tracer(settings.tracer)
        self.context = context
        self.property = property
        self.weakened_property = weaken_for_chaos(property)
        self.refusal_mode: RefusalMode = refusal_mode
        self.fast_conflict = fast_conflict
        self.max_iterations = settings.iterations_or(DEFAULT_MULTI_MAX_ITERATIONS)
        self.counterexamples_per_iteration = settings.counterexamples_per_iteration
        self.port = port
        self.incremental = settings.incremental
        self.retry_policy = settings.resolved_retry_policy()
        self.flight = settings.resolved_flight_recorder()
        self.flight.bind(settings=settings)
        self._events = ProgressEmitter(settings.progress, self.flight)
        self.robust = RobustExecutor(
            self.retry_policy,
            tracer=self.tracer,
            flight=self.flight,
            events=self._events.emit if self._events else None,
        )
        self.quarantine = Quarantine()
        fault_profile = settings.resolved_fault_profile()
        remote_policy = settings.resolved_remote()
        # Lazy for the same reason as in IntegrationSynthesizer: spawned
        # component hosts import ``repro`` without loading the adapter.
        from ..legacy.remote import RemoteComponent, rehost

        universes = universes or {}
        labelers = labelers or {}
        offset = 1 if context is not None else 0
        self.slots: list[_Slot] = []
        for position, component in enumerate(components):
            slot_profile = None
            if fault_profile is not None and fault_profile.active:
                # Each slot gets its own fault schedule (seed offset by
                # position) so one seed exercises distinct chaos per slot.
                from dataclasses import replace as _replace

                slot_profile = _replace(fault_profile, seed=fault_profile.seed + position)
            if remote_policy is not None and not isinstance(component, RemoteComponent):
                # One supervised subprocess per slot; under chaos the
                # slot's fault schedule is armed inside that host.
                component = rehost(
                    component,
                    remote_policy,
                    fault_profile=slot_profile,
                    tracer=self.tracer,
                    flight=self.flight,
                    events=self._events.emit if self._events else None,
                )
            elif slot_profile is not None and not isinstance(component, RemoteComponent):
                component = FaultyComponent.wrap(
                    component, slot_profile, tracer=self.tracer
                )
            interface = interface_of(component)
            universe = universes.get(component.name, interface.universe())
            labeler = labelers.get(component.name)
            self.slots.append(
                _Slot(
                    component=component,
                    universe=universe,
                    labeler=labeler,
                    model=initial_model(interface, labeler=labeler),
                    index=offset + position,
                )
            )
        self._validate_signals()
        from ..logic.formulas import AF, AU, Deadlock

        self._refusal_sensitive = any(
            isinstance(node, (Deadlock, AF, AU)) for node in property.walk()
        )

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

    # --------------------------------------------------------------- helpers

    def _compose(self) -> Automaton:
        parts: list[Automaton] = []
        if self.context is not None:
            parts.append(self.context)
        for slot in self.slots:
            parts.append(
                chaotic_closure(
                    slot.model,
                    slot.universe,
                    deterministic_implementation=True,
                    name=f"chaos({slot.name})",
                )
            )
        if len(parts) == 1:
            return parts[0]
        composed = compose_all(parts, semantics="open", name="multi-closure")
        if len(parts) == 2:
            # compose_all leaves two-party states as plain pairs already.
            return composed
        return composed

    def _slot_state(self, composed_state: State, slot: _Slot) -> State:
        if len(self.slots) == 1 and self.context is None:
            return composed_state
        return composed_state[slot.index]

    def _project_case(self, cex: Run, slot: _Slot) -> TestCase:
        if len(self.slots) == 1 and self.context is None:
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

    def _execute(self, slot: _Slot, case: TestCase, scratch: _MultiScratch) -> RobustExecution:
        """One supervised execution (retries, deadlines, validation)."""
        begin = time.perf_counter()
        with self.tracer.span("test.execute", steps=len(case.steps)):
            outcome = self.robust.execute(slot.component, case, port=self.port)
        self.tracer.metrics.observe("test_execute_seconds", time.perf_counter() - begin)
        scratch.tests += outcome.attempts
        scratch.retries += outcome.retries
        scratch.timeouts += outcome.timeouts
        if outcome.inconclusive:
            scratch.inconclusive += 1
        return outcome

    def _trusted(self, slot: _Slot, outcome: RobustExecution) -> bool:
        """May this outcome support a verdict?  (Lemma 6.)"""
        return outcome.validated or not getattr(
            slot.component, "fault_injection_active", False
        )

    def _replay(self, slot: _Slot, recording):
        begin = time.perf_counter()
        with self.tracer.span("monitor.replay", steps=len(recording.steps)):
            result = replay(slot.component, recording, port=self.port)
        self.tracer.metrics.observe("monitor_replay_seconds", time.perf_counter() - begin)
        return result

    def _batch_replays(self, pending: list[tuple[int, _Slot, object]]) -> dict[int, object]:
        """Replay ``(key, slot, recording)`` batches through the worker pool.

        Each chunk replays one slot's recordings strictly in submission
        order against that slot's (stateful) component, so observations
        are bit-identical to the sequential path; the pool parallelizes
        *across* slots, whose components are independent (the roadmap's
        batched monitor replays).  Returns ``key → ReplayResult``.
        """
        if not pending:
            return {}
        tracer = self.tracer
        by_slot: dict[int, list[tuple[int, _Slot, object]]] = {}
        for entry in pending:
            by_slot.setdefault(entry[1].index, []).append(entry)

        def replay_chunk(chunk):
            results = []
            for key, slot, recording in chunk:
                begin = time.perf_counter()
                with tracer.span("monitor.replay", steps=len(recording.steps)):
                    result = replay(slot.component, recording, port=self.port)
                results.append((key, result, time.perf_counter() - begin))
            return results

        chunks = [by_slot[index] for index in sorted(by_slot)]
        outputs = get_pool().map(replay_chunk, chunks, workers=len(chunks))
        replayed: dict[int, object] = {}
        for chunk_results in outputs:
            for key, result, seconds in chunk_results:
                tracer.metrics.observe("monitor_replay_seconds", seconds)
                replayed[key] = result
        return replayed

    def _learn_execution(self, slot: _Slot, outcome: RobustExecution, replay_result=None) -> bool:
        """Replay and merge; returns True when knowledge grew."""
        execution = outcome.execution
        assert execution is not None
        before = slot.model.knowledge_size()
        if replay_result is None:
            replay_result = (
                outcome.replay
                if outcome.replay is not None
                else self._replay(slot, execution.recording)
            )
        result = replay_result
        observed = result.observed_run
        with self.tracer.span("learn.merge", verdict=execution.verdict.value):
            if execution.verdict is TestVerdict.BLOCKED:
                slot.model = learn_blocked(
                    slot.model,
                    observed,
                    labeler=slot.labeler,
                    mode=self.refusal_mode,
                    universe=slot.universe,
                    observed_outputs=None,
                )
            else:
                slot.model = learn_regular(slot.model, observed, labeler=slot.labeler)
                if execution.verdict is TestVerdict.DIVERGED:
                    assert execution.divergence_index is not None
                    diverged = execution.recording.steps[execution.divergence_index]
                    source = observed.states[execution.divergence_index]
                    if self.refusal_mode == "deterministic":
                        impossible = [
                            interaction
                            for interaction in slot.universe
                            if interaction.inputs == diverged.inputs
                            and interaction.outputs != diverged.observed_outputs
                        ]
                    else:
                        impossible = [Interaction(diverged.inputs, diverged.expected_outputs)]
                    slot.model = refuse(slot.model, source, impossible, allow_no_progress=True)
        return slot.model.knowledge_size() > before

    # ---------------------------------------------------- deadlock handling

    def _reaction_table(
        self, slot: _Slot, prefix: TestCase, scratch: _MultiScratch
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
            assert execution is not None
            if execution.divergence_index is not None and execution.divergence_index < len(
                prefix.steps
            ):
                raise SynthesisError(
                    f"component {slot.name!r} did not reproduce its confirmed prefix — "
                    "it is not deterministic"
                )
            last = execution.recording.steps[-1]
            table[inputs] = None if last.blocked else last.observed_outputs
            self._learn_probe(slot, outcome)
        return table

    def _learn_probe(self, slot: _Slot, outcome: RobustExecution) -> None:
        execution = outcome.execution
        assert execution is not None
        result = (
            outcome.replay
            if outcome.replay is not None
            else self._replay(slot, execution.recording)
        )
        observed = result.observed_run
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

    def _counterexample_batch(
        self, composed: Automaton, formula: Formula, checker: ModelChecker
    ) -> list[Run]:
        with self.tracer.span(
            "counterexample.derive", limit=self.counterexamples_per_iteration
        ):
            return self._counterexample_batch_inner(composed, formula, checker)

    def _counterexample_batch_inner(
        self, composed: Automaton, formula: Formula, checker: ModelChecker
    ) -> list[Run]:
        if self.counterexamples_per_iteration > 1:
            batch = counterexamples(
                composed, formula, checker=checker, limit=self.counterexamples_per_iteration
            )
            if batch:
                return batch
        run = counterexample(composed, formula, checker=checker)
        if run is None:
            raise SynthesisError(f"{formula} was violated but no counterexample was produced")
        return [run]

    # ------------------------------------------------------------------ run

    def run(self) -> MultiSynthesisResult:
        """Execute the parallel loop until proof, real violation, or budget."""
        tracer = self.tracer
        with tracer.span("loop.run", synthesizer="MultiLegacySynthesizer"):
            result = self._run()
        if tracer.enabled:
            get_pool().publish_to(tracer.metrics)
            tracer.metrics.set_gauge("loop_iteration_count", result.iteration_count)
            for slot in self.slots:
                fault_counts = getattr(slot.component, "fault_counts", None)
                if fault_counts:
                    tracer.metrics.absorb(
                        fault_counts, prefix=f"fault_injected_{slot.name}_"
                    )
                remote_stats = getattr(slot.component, "remote_stats", None)
                if remote_stats:
                    tracer.metrics.absorb(
                        remote_stats, prefix=f"remote_{slot.name}_"
                    )
        return result

    def _quarantine_push(self, run, *, probe: bool) -> bool:
        """Quarantine a counterexample; an admission is a recorded anomaly."""
        admitted = self.quarantine.push(run, probe=probe)
        if admitted:
            if self._events:
                self._events.emit(
                    "quarantine.admitted",
                    quarantine_size=len(self.quarantine),
                    probe=probe,
                )
            self.flight.anomaly(
                "quarantine_admission",
                counterexample=repr(run),
                quarantine_size=len(self.quarantine),
            )
        return admitted

    def _run(self) -> MultiSynthesisResult:
        tracer = self.tracer
        records: list[MultiIterationRecord] = []
        self.flight.bind(settings=self.settings, records=lambda: records)
        self._events.emit(
            "loop.started",
            synthesizer="MultiLegacySynthesizer",
            components=[slot.name for slot in self.slots],
            max_iterations=self.max_iterations,
            incremental=self.incremental,
        )

        def note(rec: MultiIterationRecord) -> None:
            # ``checker`` late-binds to the current iteration's checker.
            records.append(rec)
            if tracer.enabled:
                publish_record(tracer.metrics, rec)
                checker.stats.publish_to(tracer.metrics)
            if self._events:
                self._events.emit(
                    "iteration.finished",
                    iteration=rec.index,
                    property_holds=rec.property_holds,
                    deadlock_free=rec.deadlock_free,
                    violated=rec.violated,
                    fast_conflict=rec.fast_conflict,
                    tests_executed=rec.tests_executed,
                    knowledge_gained=rec.knowledge_gained,
                    test_retries=rec.test_retries,
                    test_timeouts=rec.test_timeouts,
                    tests_inconclusive=rec.tests_inconclusive,
                    quarantine_size=rec.quarantine_size,
                )

        engine = (
            IncrementalVerifier(
                context=self.context,
                universes=[slot.universe for slot in self.slots],
                semantics="open",
                deterministic_implementation=True,
                tracer=tracer,
            )
            if self.incremental
            else None
        )
        for index in range(self.max_iterations):
            with tracer.span("loop.iteration", index=index):
                if self._events:
                    self._events.emit("iteration.started", iteration=index)
                if engine is not None:
                    step = engine.step(
                        [slot.model for slot in self.slots],
                        closure_names=[f"chaos({slot.name})" for slot in self.slots],
                        name="multi-closure",
                    )
                    composed = step.composed
                    checker = step.checker
                    step_stats = step.stats
                else:
                    with tracer.span("verify.step", models=len(self.slots)):
                        composed = self._compose()
                        checker = ModelChecker(composed, tracer=tracer)
                    step_stats = None
                with tracer.span("checker.check", kind="property"):
                    property_result = checker.check(self.weakened_property)
                with tracer.span("checker.check", kind="deadlock"):
                    deadlock_result = checker.check(DEADLOCK_FREE)
                if self._events:
                    self._events.emit(
                        "phase.finished",
                        iteration=index,
                        phase="verify",
                        property_holds=property_result.holds,
                        deadlock_free=deadlock_result.holds,
                        composed_states=len(composed.states),
                        checker_fixpoint_work=checker.stats.fixpoint_work,
                        product_hits=step_stats.product_hits if step_stats else 0,
                        product_misses=step_stats.product_misses if step_stats else 0,
                        dirty_states=step_stats.dirty_states if step_stats else 0,
                        affected_states=step_stats.affected_states if step_stats else 0,
                    )
                counter_fields = dict(
                    closure_groups_reused=step_stats.closure_groups_reused if step_stats else 0,
                    closure_groups_rebuilt=step_stats.closure_groups_rebuilt if step_stats else 0,
                    product_hits=step_stats.product_hits if step_stats else 0,
                    product_misses=step_stats.product_misses if step_stats else 0,
                    dirty_states=step_stats.dirty_states if step_stats else 0,
                    affected_states=step_stats.affected_states if step_stats else 0,
                    checker_fixpoint_work=checker.stats.fixpoint_work,
                    quarantine_size=len(self.quarantine),
                )

                def snapshot() -> tuple[tuple[int, int, int], ...]:
                    return tuple(
                        (len(slot.model.states), len(slot.model.transitions), len(slot.model.refusals))
                        for slot in self.slots
                    )

                if property_result.holds and deadlock_result.holds:
                    note(
                        MultiIterationRecord(
                            index,
                            snapshot(),
                            len(composed.states),
                            True,
                            True,
                            None,
                            None,
                            False,
                            0,
                            (),
                            0,
                            **counter_fields,
                        )
                    )
                    return self._result(Verdict.PROVEN, records, None, None)

                if not property_result.holds:
                    violated = "property"
                    batch = self._counterexample_batch(composed, self.weakened_property, checker)
                else:
                    violated = "deadlock"
                    batch = self._counterexample_batch(composed, DEADLOCK_FREE, checker)
                cex = batch[0]

                def is_chaos_free(candidate: Run) -> bool:
                    return not any(
                        is_chaos_state(self._slot_state(state, slot))
                        for state in candidate.states
                        for slot in self.slots
                    )

                def probing_needed(candidate: Run) -> bool:
                    return violated == "deadlock" or (
                        self._refusal_sensitive and composed.is_deadlock(candidate.last_state)
                    )

                chaos_free = is_chaos_free(cex)
                needs_probing = probing_needed(cex)
                if self.fast_conflict and violated == "property":
                    fast_candidate = next(
                        (
                            candidate
                            for candidate in batch
                            if not probing_needed(candidate) and is_chaos_free(candidate)
                        ),
                        None,
                    )
                    if fast_candidate is not None:
                        cex = fast_candidate
                        chaos_free = True
                        needs_probing = False
                if self.fast_conflict and violated == "property" and not needs_probing and chaos_free:
                    note(
                        MultiIterationRecord(
                            index,
                            snapshot(),
                            len(composed.states),
                            property_result.holds,
                            deadlock_result.holds,
                            violated,
                            cex,
                            True,
                            0,
                            (),
                            0,
                            **counter_fields,
                        )
                    )
                    return self._result(Verdict.REAL_VIOLATION, records, cex, violated)

                before = sum(slot.model.knowledge_size() for slot in self.slots)
                scratch = _MultiScratch()
                learned_names: list[str] = []
                all_confirmed = True
                trusted = True
                for slot in self.slots:
                    case = self._project_case(cex, slot)
                    outcome = self._execute(slot, case, scratch)
                    if outcome.inconclusive:
                        # Undecided on this component, so undecided overall:
                        # quarantine the candidate for a later retry, learn
                        # nothing from it here (Lemma 6).
                        all_confirmed = False
                        self._quarantine_push(cex, probe=False)
                        continue
                    if not self._trusted(slot, outcome):
                        trusted = False
                    assert outcome.execution is not None
                    if outcome.execution.verdict is TestVerdict.CONFIRMED:
                        should_learn = not chaos_free
                    else:
                        all_confirmed = False
                        should_learn = True
                    if should_learn:
                        try:
                            if self._learn_execution(slot, outcome):
                                learned_names.append(slot.name)
                        except LearningError:
                            # A falsely validated recording poisoned the
                            # model earlier; under chaos the contradiction
                            # is injection noise, not component
                            # non-determinism — quarantine and move on.
                            if not getattr(
                                slot.component, "fault_injection_active", False
                            ):
                                raise
                            all_confirmed = False
                            scratch.inconclusive += 1
                            self._quarantine_push(cex, probe=False)
                        except (
                            FaultInjectionError,
                            TestTimeoutError,
                            RemoteComponentError,
                        ):
                            # The host process failed during the learning
                            # replay (unreachable in-process): undecided,
                            # never a verdict — same path as inconclusive.
                            all_confirmed = False
                            scratch.inconclusive += 1
                            self._quarantine_push(cex, probe=False)

                # Extra batch counterexamples — and quarantined runs from
                # earlier iterations — contribute test/learn material only;
                # verdict decisions rest on the primary one.  Probing
                # candidates are skipped (their confirmation protocol is the
                # expensive primary-path one).  Executions run slot by slot,
                # then the monitor replays are batched through the worker
                # pool, one chunk per slot, so independent components replay
                # in parallel (the roadmap's batched-replay item).
                extras: list[tuple[Run, bool]] = [(c, True) for c in batch[1:]]
                fresh = {repr(c) for c in batch}
                extras.extend(
                    (run, False)
                    for run, _ in self.quarantine.drain()
                    if repr(run) not in fresh
                )
                for candidate, from_batch in extras:
                    if candidate is cex or (from_batch and probing_needed(candidate)):
                        continue
                    candidate_chaos_free = is_chaos_free(candidate)
                    staged: list[tuple[_Slot, RobustExecution]] = []
                    for slot in self.slots:
                        case = self._project_case(candidate, slot)
                        outcome = self._execute(slot, case, scratch)
                        if outcome.inconclusive:
                            self._quarantine_push(candidate, probe=False)
                            continue
                        assert outcome.execution is not None
                        if (
                            outcome.execution.verdict is TestVerdict.CONFIRMED
                            and candidate_chaos_free
                        ):
                            continue
                        staged.append((slot, outcome))
                    try:
                        replayed = self._batch_replays(
                            [
                                (position, slot, outcome.execution.recording)
                                for position, (slot, outcome) in enumerate(staged)
                                if outcome.replay is None
                            ]
                        )
                    except (FaultInjectionError, TestTimeoutError, RemoteComponentError):
                        # A host died during the batched replays: this
                        # candidate is learning material only, so retry it
                        # later against a fresh host.
                        scratch.inconclusive += 1
                        self._quarantine_push(candidate, probe=False)
                        continue
                    for position, (slot, outcome) in enumerate(staged):
                        try:
                            if self._learn_execution(
                                slot, outcome, replayed.get(position, outcome.replay)
                            ):
                                learned_names.append(slot.name)
                        except LearningError:
                            # Later candidates may contradict knowledge the
                            # earlier ones just merged; skipping is sound.
                            continue
                        except (FaultInjectionError, TestTimeoutError, RemoteComponentError):
                            scratch.inconclusive += 1
                            self._quarantine_push(candidate, probe=False)
                            continue

                real = False
                if all_confirmed:
                    if needs_probing:
                        tables = []
                        undecided = False
                        for slot in self.slots:
                            prefix = self._project_case(cex, slot)
                            table = self._reaction_table(slot, prefix, scratch)
                            if table is None:
                                undecided = True
                                break
                            tables.append(table)
                            learned_names.append(slot.name)
                        if undecided:
                            # A probe came back inconclusive: the deadlock is
                            # neither confirmed nor refuted.  Quarantine.
                            self._quarantine_push(cex, probe=True)
                        else:
                            context_state = (
                                cex.last_state[0] if self.context is not None else None
                            )
                            real = not self._joint_step_exists(context_state, tables)
                    elif chaos_free:
                        real = True
                if real and not trusted:
                    # Lemma 6: an unvalidated execution cannot witness a real
                    # integration error; retry the candidate instead.
                    self._quarantine_push(cex, probe=False)
                    real = False

                after = sum(slot.model.knowledge_size() for slot in self.slots)
                note(
                    MultiIterationRecord(
                        index,
                        snapshot(),
                        len(composed.states),
                        property_result.holds,
                        deadlock_result.holds,
                        violated,
                        cex,
                        False,
                        scratch.tests,
                        tuple(dict.fromkeys(learned_names)),
                        after - before,
                        **{
                            **counter_fields,
                            "test_retries": scratch.retries,
                            "test_timeouts": scratch.timeouts,
                            "tests_inconclusive": scratch.inconclusive,
                            "quarantine_size": len(self.quarantine),
                        },
                    )
                )
                if real:
                    return self._result(Verdict.REAL_VIOLATION, records, cex, violated)
                if after <= before and scratch.inconclusive == 0:
                    message = (
                        f"iteration {index} made no learning progress — non-deterministic "
                        "component or inconsistent universe"
                    )
                    self.flight.anomaly("synthesis_error", iteration=index, error=message)
                    raise SynthesisError(message)
        return self._result(Verdict.BUDGET_EXCEEDED, records, None, None)

    def _result(
        self,
        verdict: Verdict,
        records: list[MultiIterationRecord],
        witness: Run | None,
        kind: str | None,
    ) -> MultiSynthesisResult:
        result = MultiSynthesisResult(
            verdict=verdict,
            property=self.property,
            iterations=tuple(records),
            final_models={slot.name: slot.model for slot in self.slots},
            violation_witness=witness,
            violation_kind=kind,
            quarantined=self.quarantine.unresolved(),
        )
        if self._events:
            self._events.emit(
                "verdict.reached",
                verdict=verdict.value,
                iterations=result.iteration_count,
                quarantined=len(result.quarantined),
            )
        if verdict is Verdict.BUDGET_EXCEEDED:
            self.flight.anomaly(
                "budget_exceeded",
                iterations=result.iteration_count,
                quarantined=len(result.quarantined),
            )
        return result
