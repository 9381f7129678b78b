"""The verify → test → learn loop shared by both synthesizers.

:class:`~repro.synthesis.iterate.IntegrationSynthesizer` (one legacy
placement, §4) and :class:`~repro.synthesis.multi.MultiLegacySynthesizer`
(several placements learned in parallel, §7) run the same loop over a
list of *slots*, one per legacy component: verify the composition of
the context with one chaotic closure per slot, derive counterexamples,
test their projections against the real components under supervision,
and learn what was observed.  :class:`_LoopDriver` owns that loop —
settings, component preparation, the iteration budget, verification,
supervision, quarantine, replay, learning, observability and the
verdict — and each synthesizer supplies only its policy: how a
counterexample is tested and confirmed, and which record and result
types report it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from ..automata.automaton import Automaton
from ..automata.chaos import is_chaos_state
from ..automata.incomplete import IncompleteAutomaton
from ..automata.incremental import IncrementalVerifier, StepStats
from ..automata.interaction import Interaction, InteractionUniverse
from ..automata.runs import Run
from ..errors import FaultInjectionError, RemoteComponentError, SynthesisError, TestTimeoutError
from ..legacy.component import LegacyComponent
from ..logic.checker import ModelChecker
from ..logic.compositional import assert_compositional, weaken_for_chaos
from ..logic.formulas import AF, AU, DEADLOCK_FREE, Deadlock, Formula
from ..obs.metrics import publish_record
from ..obs.tracer import resolve_tracer
from ..testing.executor import TestVerdict
from ..testing.faults import FaultyComponent
from ..testing.replay import ReplayResult
from ..testing.robust import Quarantine, RobustExecution, RobustExecutor
from ..testing.testcase import TestCase
from .initial import StateLabeler
from .learning import RefusalMode
from .settings import SynthesisSettings

__all__ = ["Verdict"]

#: Failures of a real component host that escape the supervised test
#: window (crash, hang kill, protocol violation) — e.g. during probing
#: or a learning replay, where in-process fault injection cannot fire.
#: The loop degrades soundly: the counterexample is quarantined for a
#: retry against a fresh host, never reported as a violation.
HOST_FAILURES = (FaultInjectionError, TestTimeoutError, RemoteComponentError)


class Verdict(Enum):
    """How a synthesis run ended."""

    PROVEN = "proven"
    REAL_VIOLATION = "real-violation"
    BUDGET_EXCEEDED = "budget-exceeded"


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


@dataclass
class _IterationScratch:
    """Mutable per-iteration counters the helpers update."""

    tests: int = 0
    replays: int = 0
    retries: int = 0
    timeouts: int = 0
    inconclusive: int = 0
    observed: Run | None = None
    test_verdict: TestVerdict | None = None
    real_violation: bool = False
    violation: Run | None = None
    learned: list[str] = field(default_factory=list)  # slot names, in learning order


#: Counters of an iteration that tested nothing (proof, fast conflict).
_NO_WORK = _IterationScratch()


@dataclass(slots=True)
class _Check:
    """One iteration's verification: closures, product, checker, verdicts."""

    index: int
    closures: Sequence[Automaton]
    composed: Automaton
    checker: ModelChecker
    stats: StepStats
    property_holds: bool
    deadlock_free: bool


class _LoopDriver:
    """The loop skeleton; subclasses supply the policy hooks below.

    The layer entry points the loop calls — ``counterexample``,
    ``counterexamples``, ``replay``, ``learn_regular``, ``learn_blocked``
    and ``refuse`` — are looked up at call time on the synthesizer's own
    module (:attr:`_layers`), so code that rebinds them there (the
    outside-in layer timing of ``benchmarks/e2e``) sees every call.
    """

    #: The synthesizer name on the ``loop.run`` span and in events.
    _synthesizer: str
    #: The module whose globals provide the layer entry points.
    _layers: object
    #: The composition semantics of the verified product.
    _semantics: str
    #: The composed product's name (``None``: the engine's default).
    _product_name: str | None = None
    #: Prefix per-slot fault/remote metrics with the slot name.
    _scoped_metrics: bool = False

    slots: list[_Slot]

    def __init__(
        self,
        context: Automaton | None,
        property: Formula,
        settings: SynthesisSettings | None,
        *,
        default_iterations: int,
        refusal_mode: RefusalMode,
        fast_conflict: bool,
        port: str,
    ):
        assert_compositional(property)
        settings = settings if settings is not None else SynthesisSettings()
        self.settings = settings
        self.tracer = resolve_tracer(settings.tracer)
        self.tracer.bind(settings=settings)
        self._fault_profile = settings.resolved_fault_profile()
        self._chaos = self._fault_profile is not None and self._fault_profile.active
        self._remote = settings.resolved_remote()
        self.retry_policy = settings.resolved_retry_policy()
        self.robust = RobustExecutor(self.retry_policy, tracer=self.tracer)
        self.quarantine = Quarantine()
        self.context = context
        self.property = property
        self.weakened_property = weaken_for_chaos(property)
        self.refusal_mode: RefusalMode = refusal_mode
        self.fast_conflict = fast_conflict
        self.max_iterations = settings.iterations_or(default_iterations)
        self.counterexamples_per_iteration = settings.counterexamples_per_iteration
        self.port = port
        # Violations of properties mentioning the deadlock atom or an
        # eventuality (AF/AU) can hinge on the closure's *pessimistic
        # refusals* — a path that merely might end.  Only those need the
        # probe treatment when their counterexample ends in a composed
        # deadlock state; violations of boolean-state properties rest on
        # labels alone.
        self._refusal_sensitive = any(
            isinstance(node, (Deadlock, AF, AU)) for node in property.walk()
        )

    def _prepare(self, component: LegacyComponent, position: int) -> LegacyComponent:
        """Rehost or fault-wrap the component of slot ``position``.

        Under chaos each slot gets its own fault schedule, the seed
        offset by position, so one seed exercises distinct chaos per
        slot.  Out of process, the component — and its fault schedule —
        moves into a supervised subprocess: fault-free verdicts stay
        bit-identical to in-process runs, while real crashes and hangs
        surface as retryable faults.  In process, the fault wrapper is
        transparent everywhere except the robust executor's armed scopes.
        """
        # Imported lazily so spawned component hosts (which import the
        # ``repro`` package) do not load ``legacy.remote`` twice.
        from ..legacy.remote import RemoteComponent, rehost

        if isinstance(component, RemoteComponent):
            return component
        profile = None
        if self._chaos:
            profile = replace(self._fault_profile, seed=self._fault_profile.seed + position)
        if self._remote is not None:
            return rehost(component, self._remote, fault_profile=profile, tracer=self.tracer)
        if profile is not None:
            return FaultyComponent.wrap(component, profile, tracer=self.tracer)
        return component

    def _adopt(self, slots: list[_Slot]) -> None:
        self.slots = slots
        # One slot without a context: composed states are the slot's own.
        self._bare = self.context is None and len(slots) == 1

    # ------------------------------------------------------------ policy hooks

    def _loop_info(self) -> dict:
        """Extra ``loop.started`` payload."""
        return {}

    def _closure_names(self, index: int) -> Sequence[str]:
        raise NotImplementedError

    def _test_and_learn(
        self, check: _Check, violated: str, batch: list[Run], scratch: _IterationScratch
    ) -> tuple[Run, bool]:
        """Test and learn from a failed check; ``(counterexample, real)``."""
        raise NotImplementedError

    def _record(
        self,
        check: _Check,
        violated: str | None,
        cex: Run | None,
        scratch: _IterationScratch,
        fast: bool,
        gained: int,
    ):
        raise NotImplementedError

    def _result(self, verdict: Verdict, records: list, check: _Check | None, witness, kind):
        raise NotImplementedError

    # -------------------------------------------------------------------- loop

    def run(self):
        """Execute the loop until proof, real violation, or budget."""
        tracer = self.tracer
        with tracer.span("loop.run", synthesizer=self._synthesizer):
            result = self._run()
        if tracer.enabled:
            metrics = tracer.metrics
            self.robust.pool.publish_to(metrics)
            metrics.set_gauge("loop_iteration_count", result.iteration_count)
            for slot in self.slots:
                scope = f"{slot.name}_" if self._scoped_metrics else ""
                fault_counts = getattr(slot.component, "fault_counts", None)
                if fault_counts:
                    metrics.absorb(fault_counts, prefix=f"fault_injected_{scope}")
                remote_stats = getattr(slot.component, "remote_stats", None)
                if remote_stats:
                    metrics.absorb(remote_stats, prefix=f"remote_{scope}")
        return result

    def _run(self):
        tracer = self.tracer
        records: list = []
        tracer.bind(settings=self.settings, records=lambda: records)
        tracer.event(
            "loop.started",
            synthesizer=self._synthesizer,
            **self._loop_info(),
            max_iterations=self.max_iterations,
        )
        engine = IncrementalVerifier(
            context=self.context,
            universes=[slot.universe for slot in self.slots],
            semantics=self._semantics,
            tracer=tracer,
        )
        check = None
        for index in range(self.max_iterations):
            with tracer.span("loop.iteration", index=index):
                if tracer.enabled:
                    tracer.event("iteration.started", iteration=index)
                check = None  # free the previous product before verifying anew
                check = self._verify(engine, index)
                if check.property_holds and check.deadlock_free:
                    self._note(records, check)
                    return self._finish(Verdict.PROVEN, records, check)

                if not check.property_holds:
                    violated = "property"
                    formula = self.weakened_property
                else:
                    violated = "deadlock"
                    formula = DEADLOCK_FREE
                batch = self._counterexample_batch(check.composed, formula, check.checker)
                if self.fast_conflict and violated == "property":
                    # §4.2's fast conflict detection: a property
                    # counterexample confined to the synthesized part is
                    # a real conflict without any test.
                    conflict = next(
                        (
                            candidate
                            for candidate in batch
                            if not self._needs_probing(check.composed, violated, candidate)
                            and self._chaos_free(candidate)
                        ),
                        None,
                    )
                    if conflict is not None:
                        self._note(records, check, violated, conflict, fast=True)
                        return self._finish(
                            Verdict.REAL_VIOLATION, records, check, conflict, violated
                        )

                scratch = _IterationScratch()
                before = self._knowledge()
                cex, real = self._test_and_learn(check, violated, batch, scratch)
                gained = self._knowledge() - before
                self._note(records, check, violated, cex, scratch, gained=gained)
                if real:
                    return self._finish(Verdict.REAL_VIOLATION, records, check, cex, violated)
                if gained <= 0 and scratch.inconclusive == 0:
                    # An iteration that learned nothing *and* completed all
                    # its tests fault-free contradicts §4.4's termination
                    # argument.  Inconclusive-only iterations are allowed to
                    # continue — the retry happens under the iteration
                    # budget, so degradation stays bounded.
                    if self._chaos:
                        # Under fault injection §4.4's premises fail: a
                        # silent crash-reset inside a long output-free run
                        # is observationally clean (nothing to contradict)
                        # yet erases the progress the counterexample needed,
                        # so the iteration legitimately learns nothing.  The
                        # sound degraded answer is inconclusive, never a
                        # crash — found by the randomized conformance
                        # campaign on large scenarios.
                        tracer.anomaly(
                            "chaos_zero_progress", iteration=index, counterexample=repr(cex)
                        )
                        return self._finish(Verdict.BUDGET_EXCEEDED, records, check)
                    message = (
                        f"iteration {index} made no learning progress on {cex} — "
                        "this contradicts §4.4's termination argument and indicates "
                        "a non-deterministic component or an inconsistent universe"
                    )
                    tracer.anomaly("synthesis_error", iteration=index, error=message)
                    raise SynthesisError(message)
        return self._finish(Verdict.BUDGET_EXCEEDED, records, check)

    def _knowledge(self) -> int:
        return sum(slot.model.knowledge_size() for slot in self.slots)

    def _verify(self, engine: IncrementalVerifier, index: int) -> _Check:
        """Model-check ``context ∥ chaos(M_1) ∥ … ⊨ φ_weak`` and ``¬δ``."""
        tracer = self.tracer
        step = engine.step(
            [slot.model for slot in self.slots],
            closure_names=self._closure_names(index),
            name=self._product_name,
        )
        composed, checker, stats = step.composed, step.checker, step.stats
        with tracer.span("checker.check", kind="property"):
            property_holds = checker.check(self.weakened_property).holds
        with tracer.span("checker.check", kind="deadlock"):
            deadlock_free = checker.check(DEADLOCK_FREE).holds
        if tracer.enabled:
            tracer.event(
                "phase.finished",
                iteration=index,
                phase="verify",
                property_holds=property_holds,
                deadlock_free=deadlock_free,
                composed_states=len(composed.states),
                checker_fixpoint_work=checker.stats.fixpoint_work,
                product_hits=stats.product_hits,
                product_misses=stats.product_misses,
                dirty_states=stats.dirty_states,
                affected_states=stats.affected_states,
            )
        return _Check(
            index, step.closures, composed, checker, stats, property_holds, deadlock_free
        )

    def _note(
        self,
        records: list,
        check: _Check,
        violated: str | None = None,
        cex: Run | None = None,
        scratch: _IterationScratch = _NO_WORK,
        *,
        fast: bool = False,
        gained: int = 0,
    ) -> None:
        """Record an iteration; publish its metrics and ``iteration.finished``."""
        record = self._record(check, violated, cex, scratch, fast, gained)
        records.append(record)
        tracer = self.tracer
        if tracer.enabled:
            publish_record(tracer.metrics, record)
            check.checker.stats.publish_to(tracer.metrics)
            tracer.event(
                "iteration.finished",
                iteration=record.index,
                property_holds=record.property_holds,
                deadlock_free=record.deadlock_free,
                violated=record.violated,
                fast_conflict=record.fast_conflict,
                tests_executed=record.tests_executed,
                knowledge_gained=record.knowledge_gained,
                test_retries=record.test_retries,
                test_timeouts=record.test_timeouts,
                tests_inconclusive=record.tests_inconclusive,
                quarantine_size=record.quarantine_size,
            )

    def _counters(self, check: _Check, scratch: _IterationScratch) -> dict:
        """The counter fields both record types share."""
        stats = check.stats
        return dict(
            closure_groups_reused=stats.closure_groups_reused,
            closure_groups_rebuilt=stats.closure_groups_rebuilt,
            product_hits=stats.product_hits,
            product_misses=stats.product_misses,
            dirty_states=stats.dirty_states,
            affected_states=stats.affected_states,
            checker_fixpoint_work=check.checker.stats.fixpoint_work,
            test_retries=scratch.retries,
            test_timeouts=scratch.timeouts,
            tests_inconclusive=scratch.inconclusive,
            quarantine_size=len(self.quarantine),
        )

    def _finish(
        self, verdict: Verdict, records: list, check: _Check | None, witness=None, kind=None
    ):
        """Build the result; emit the verdict (and dump degraded ones)."""
        result = self._result(verdict, records, check, witness, kind)
        tracer = self.tracer
        tracer.event(
            "verdict.reached",
            verdict=verdict.value,
            iterations=result.iteration_count,
            quarantined=len(result.quarantined),
        )
        if verdict is Verdict.BUDGET_EXCEEDED:
            tracer.anomaly(
                "budget_exceeded",
                iterations=result.iteration_count,
                quarantined=len(result.quarantined),
            )
        return result

    # ------------------------------------------------------------ counterexamples

    def _counterexample_batch(
        self, composed: Automaton, formula: Formula, checker: ModelChecker
    ) -> list[Run]:
        with self.tracer.span("counterexample.derive", limit=self.counterexamples_per_iteration):
            if self.counterexamples_per_iteration > 1:
                batch = self._layers.counterexamples(
                    composed, formula, checker=checker, limit=self.counterexamples_per_iteration
                )
                if batch:
                    return batch
            run = self._layers.counterexample(composed, formula, checker=checker)
            if run is None:
                raise SynthesisError(f"{formula} was violated but no counterexample was produced")
            return [run]

    def _needs_probing(self, composed: Automaton, violated: str, run: Run) -> bool:
        """Is ``run`` confirmed by probing what the context offers at its end?

        Deadlock counterexamples always are.  A property counterexample
        that *ends in a composed deadlock state* may owe its violation
        to the pessimistic refusals of the closure (the deadlock atom,
        or a bounded obligation cut short) rather than to real labels:
        such runs are confirmed or refuted exactly like deadlock
        counterexamples, and a confirmed probe failure then witnesses a
        genuine ¬δ violation of φ ∧ ¬δ.
        """
        return violated == "deadlock" or (
            self._refusal_sensitive and composed.is_deadlock(run.last_state)
        )

    def _chaos_free(self, run: Run) -> bool:
        """Does ``run`` stay inside every slot's learned (non-chaotic) part?"""
        if self._bare:
            return not any(is_chaos_state(state) for state in run.states)
        return not any(
            is_chaos_state(state[slot.index]) for state in run.states for slot in self.slots
        )

    def _quarantine_push(self, run: Run, *, probe: bool) -> bool:
        """Quarantine a counterexample; an admission is a recorded anomaly."""
        admitted = self.quarantine.push(run, probe=probe)
        if admitted:
            self.tracer.event(
                "quarantine.admitted", quarantine_size=len(self.quarantine), probe=probe
            )
            self.tracer.anomaly(
                "quarantine_admission",
                counterexample=repr(run),
                quarantine_size=len(self.quarantine),
            )
        return admitted

    def _undecided(self, run: Run, scratch: _IterationScratch, *, probe: bool) -> None:
        """Count an inconclusive decision and quarantine its counterexample."""
        scratch.inconclusive += 1
        self._quarantine_push(run, probe=probe)

    # ---------------------------------------------------------------- testing

    def _execute(self, slot: _Slot, case: TestCase, scratch: _IterationScratch) -> RobustExecution:
        """One supervised execution (retries, deadlines, validation)."""
        with self.tracer.span("test.execute", steps=len(case.steps)):
            outcome = self.robust.execute(slot.component, case, port=self.port)
        scratch.tests += outcome.attempts
        scratch.retries += outcome.retries
        scratch.timeouts += outcome.timeouts
        scratch.replays += outcome.replays_performed
        if outcome.inconclusive:
            scratch.inconclusive += 1
        return outcome

    def _execute_supervised(
        self,
        slot: _Slot,
        case: TestCase,
        scratch: _IterationScratch,
        *,
        quarantine_run: Run | None,
        probe: bool,
    ) -> RobustExecution | None:
        """Execute a test; quarantine its counterexample when inconclusive.

        Returns ``None`` when the execution could not be completed
        fault-free — the caller must then treat the counterexample as
        *undecided*: no learning, no verdict (Lemma 6).
        """
        outcome = self._execute(slot, case, scratch)
        scratch.test_verdict = outcome.verdict
        if outcome.inconclusive:
            if quarantine_run is not None:
                self._quarantine_push(quarantine_run, probe=probe)
            return None
        return outcome

    def _trusted(self, slot: _Slot, outcome: RobustExecution) -> bool:
        """May this outcome witness a real violation?  (Lemma 6.)

        A validated outcome always may; an unvalidated one only when the
        component cannot inject faults at all.
        """
        return outcome.validated or not getattr(slot.component, "fault_injection_active", False)

    def _absorb_learning_error(
        self, slot: _Slot, run: Run, scratch: _IterationScratch, *, probe: bool
    ) -> bool:
        """Downgrade a learning contradiction to *inconclusive* under chaos.

        Validation is probabilistic: a corrupted recording can survive
        its replays when the replay faults happen to reproduce the
        corruption.  When that poisoned knowledge later contradicts an
        observation, the contradiction is chaos-induced, not genuine
        component non-determinism — quarantine the counterexample
        instead of aborting the run.  Without fault injection the
        contradiction is real and must keep raising.
        """
        if not getattr(slot.component, "fault_injection_active", False):
            return False
        self._undecided(run, scratch, probe=probe)
        return True

    # ------------------------------------------------------- replay and learning

    def _outcome_replay(
        self, slot: _Slot, outcome: RobustExecution, scratch: _IterationScratch
    ) -> ReplayResult:
        """The outcome's validation replay, or a fresh one when absent."""
        if outcome.replay is not None:
            return outcome.replay
        recording = outcome.execution.recording
        scratch.replays += 1
        with self.tracer.span("monitor.replay", steps=len(recording.steps)):
            return self._layers.replay(slot.component, recording, port=self.port)

    def _learn_execution(
        self,
        slot: _Slot,
        outcome: RobustExecution,
        scratch: _IterationScratch,
    ) -> bool:
        """Merge a finished test execution into the slot's model.

        Definition 11 for the observed reactions, Definition 12 (plus the
        wholesale refusal extension) for a blocked run, and a refusal of
        the expected reaction at a divergence.  The merge is atomic: a
        :class:`~repro.errors.LearningError` leaves the model untouched.
        Returns whether the model's knowledge grew.
        """
        execution = outcome.execution
        observed = self._outcome_replay(slot, outcome, scratch).observed_run
        scratch.observed = observed
        layers = self._layers
        model = slot.model
        before = model.knowledge_size()
        with self.tracer.span("learn.merge", verdict=execution.verdict.value):
            if execution.verdict is TestVerdict.BLOCKED:
                model = layers.learn_blocked(
                    model,
                    observed,
                    labeler=slot.labeler,
                    mode=self.refusal_mode,
                    universe=slot.universe,
                    observed_outputs=None,
                )
            else:
                model = layers.learn_regular(model, observed, labeler=slot.labeler)
                if execution.verdict is TestVerdict.DIVERGED:
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
                    model = layers.refuse(model, source, impossible, allow_no_progress=True)
        slot.model = model
        return model.knowledge_size() > before
