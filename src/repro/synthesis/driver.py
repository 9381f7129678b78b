"""The verify → test → learn loop for one to n legacy slots (§4, §7).

:class:`Synthesizer` verifies the composition of the context with one
chaotic closure per *slot* (one slot per legacy component), derives
counterexamples, tests their projections against the real components
under supervision, and learns what was observed — for one placement
(§4) and, by "the parallel combination of multiple behavioral models"
(§7), for several at once.  The soundness story is the same for any n:
each closure is a safe abstraction of its component (Theorem 1) and
refinement is a precongruence for ``∥`` (Lemma 2), so Lemma 5 lifts to
the n-ary composition.

Every counterexample of a failed check — the checker's batch plus the
quarantined runs of earlier iterations — is projected onto every slot,
executed, replayed and merged before the next one.  A deadlock
counterexample whose projections all reproduce is confirmed by
*probing*: for each slot in turn, an *offer* is a joint step of the
context and the other slots' current closures at the post-prefix states
testing just confirmed, and the slot is driven down its prefix and
asked for the reaction each offer needs.  The deadlock is real only
when no joint step survives and every probed reaction is decided.  With
one slot the offers are exactly the context's transitions — §4.2's
probing.

:class:`~repro.synthesis.iterate.IntegrationSynthesizer` and
:class:`~repro.synthesis.multi.MultiLegacySynthesizer` are constructor
adapters over this class.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from ..automata.automaton import Automaton, State
from ..automata.chaos import is_chaos_state
from ..automata.incomplete import IncompleteAutomaton
from ..automata.incremental import IncrementalVerifier, StepStats
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

# The loop's layer entry points, resolved through :attr:`Synthesizer._layers`.
from ..logic.counterexample import counterexample, counterexamples  # noqa: F401
from ..logic.formulas import AF, AU, DEADLOCK_FREE, Deadlock, Formula
from ..obs.metrics import publish_record
from ..obs.tracer import resolve_tracer
from ..testing.executor import TestVerdict
from ..testing.faults import FaultyComponent
from ..testing.replay import ReplayResult, replay  # noqa: F401
from ..testing.robust import Quarantine, RobustExecution, RobustExecutor
from ..testing.testcase import TestCase, TestStep, test_case_from_counterexample
from .initial import StateLabeler, initial_model
from .learning import RefusalMode, learn_blocked, learn_regular, refuse  # noqa: F401
from .settings import SynthesisSettings

__all__ = ["Verdict", "IterationRecord", "SynthesisResult", "Synthesizer"]

#: Failures of a real component host that escape the supervised test
#: window (crash, hang kill, protocol violation) — e.g. during probing
#: or a learning replay, where in-process fault injection cannot fire.
#: The loop degrades soundly: the counterexample is quarantined for a
#: retry against a fresh host, never reported as a violation.
HOST_FAILURES = (FaultInjectionError, TestTimeoutError, RemoteComponentError)

#: Default iteration budget of :class:`Synthesizer`.
DEFAULT_MAX_ITERATIONS = 500


class Verdict(Enum):
    """How a synthesis run ended."""

    PROVEN = "proven"
    REAL_VIOLATION = "real-violation"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class IterationRecord:
    """Everything observed during one iteration of the loop.

    With several slots, the model and closure sizes are sums over the
    slots.
    """

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
    #: The learned model of every slot, keyed by component name.
    final_models: dict[str, IncompleteAutomaton]
    #: The last verified closure of a one-slot run (``None`` otherwise).
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
    def final_model(self) -> IncompleteAutomaton:
        """The learned model of a one-slot run."""
        if len(self.final_models) != 1:
            raise SynthesisError(
                f"the run learned {len(self.final_models)} models; use final_models"
            )
        (model,) = self.final_models.values()
        return model

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
        return sum(len(model.states) for model in self.final_models.values())

    @property
    def learned_transitions(self) -> int:
        return sum(len(model.transitions) for model in self.final_models.values())

    @property
    def learned_refusals(self) -> int:
        return sum(len(model.refusals) for model in self.final_models.values())


@dataclass
class _Slot:
    """Bookkeeping for one legacy component."""

    component: LegacyComponent
    universe: InteractionUniverse
    labeler: StateLabeler | None
    initial: IncompleteAutomaton  # M_l^0: every run starts from it
    model: IncompleteAutomaton
    index: int  # position inside the composed tuple states
    #: Outputs some other party consumes: the ones a joint step constrains.
    linked: frozenset[str] = frozenset()

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


#: One party's moves at a configuration: ``(interaction, known)`` pairs.
_Moves = list[tuple[Interaction, bool]]


class Synthesizer:
    """Drives the verify → test → learn loop for one to n legacy slots.

    Parameters
    ----------
    context:
        The modeled context ``M_a^c``, or ``None`` when the legacy
        components only interact with each other.
    components:
        The executable legacy components, one slot each.  Their names
        must be unique and all signal sets pairwise composable.
    property:
        The required compositional constraint ``φ``.  Deadlock freedom
        ``¬δ`` is always checked in addition, per §4.1.
    universes, labelers, knowledge:
        Per-slot interaction alphabet (default: the message-passing
        alphabet of the interface), state labeler, and starting model
        (default: the trivial ``M_l^0``), aligned with ``components``.
    refusal_mode:
        ``"deterministic"`` (default) exploits strong determinism to
        refuse wholesale; ``"conservative"`` follows Definition 12
        literally.
    fast_conflict:
        Enable §4.2's shortcut: a property counterexample confined to
        the synthesized (non-chaotic) part proves a real conflict
        without testing.
    settings:
        The loop-tuning knobs
        (:class:`~repro.synthesis.settings.SynthesisSettings`).

    The layer entry points the loop calls — ``counterexample``,
    ``counterexamples``, ``replay``, ``learn_regular``, ``learn_blocked``
    and ``refuse`` — are looked up at call time on :attr:`_layers`, so
    code that rebinds them there (the outside-in layer timing of
    ``benchmarks/e2e``) sees every call.
    """

    #: The synthesizer name on the ``loop.run`` span and in events.
    _synthesizer = "Synthesizer"
    #: The module whose globals provide the layer entry points.
    _layers = sys.modules[__name__]
    #: The iteration budget when the settings name none.
    _default_iterations = DEFAULT_MAX_ITERATIONS

    def __init__(
        self,
        context: Automaton | None,
        components: Sequence[LegacyComponent],
        property: Formula,
        *,
        universes: Sequence[InteractionUniverse | None] | None = None,
        labelers: Sequence[StateLabeler | None] | None = None,
        knowledge: Sequence[IncompleteAutomaton | None] | None = None,
        refusal_mode: RefusalMode = "deterministic",
        fast_conflict: bool = True,
        settings: SynthesisSettings | None = None,
        port: str = "port",
    ):
        if not components:
            raise SynthesisError(f"{self._synthesizer} needs at least one legacy component")
        names = [component.name for component in components]
        if len(set(names)) != len(names):
            raise SynthesisError(f"legacy component names must be unique, got {names}")
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
        self.max_iterations = settings.iterations_or(self._default_iterations)
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

        offset = 1 if context is not None else 0
        unset = [None] * len(components)
        self.slots: list[_Slot] = []
        for position, (component, universe, labeler, start) in enumerate(
            zip(components, universes or unset, labelers or unset, knowledge or unset, strict=True)
        ):
            # One supervised subprocess (or fault wrapper) per slot.
            component = self._prepare(component, position)
            interface = interface_of(component)
            if start is None:
                start = initial_model(interface, labeler=labeler)
            self.slots.append(
                _Slot(
                    component=component,
                    universe=universe if universe is not None else interface.universe(),
                    labeler=labeler,
                    initial=start,
                    model=start,
                    index=offset + position,
                )
            )
        self._validate_signals()
        # One slot without a context: composed states are the slot's own.
        self._bare = context is None and len(self.slots) == 1

    def _validate_signals(self) -> None:
        """Pairwise composability; records each slot's linked outputs."""
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
        consumed = frozenset().union(*(inputs for _, inputs, _ in parts))
        for slot in self.slots:
            slot.linked = slot.component.outputs & consumed

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

    # -------------------------------------------------------------------- loop

    def run(self) -> SynthesisResult:
        """Execute the loop until proof, real violation, or budget."""
        tracer = self.tracer
        with tracer.span("loop.run", synthesizer=self._synthesizer):
            result = self._run()
        if tracer.enabled:
            metrics = tracer.metrics
            self.robust.pool.publish_to(metrics)
            metrics.set_gauge("loop_iteration_count", result.iteration_count)
            scoped = len(self.slots) > 1
            for slot in self.slots:
                scope = f"{slot.name}_" if scoped else ""
                fault_counts = getattr(slot.component, "fault_counts", None)
                if fault_counts:
                    metrics.absorb(fault_counts, prefix=f"fault_injected_{scope}")
                remote_stats = getattr(slot.component, "remote_stats", None)
                if remote_stats:
                    metrics.absorb(remote_stats, prefix=f"remote_{scope}")
        return result

    def _run(self) -> SynthesisResult:
        tracer = self.tracer
        for slot in self.slots:
            slot.model = slot.initial  # every run starts from M_l^0
        records: list[IterationRecord] = []
        tracer.bind(settings=self.settings, records=lambda: records)
        components = {"components": [slot.name for slot in self.slots]} if len(self.slots) > 1 else {}
        tracer.event(
            "loop.started",
            synthesizer=self._synthesizer,
            **components,
            max_iterations=self.max_iterations,
        )
        engine = IncrementalVerifier(
            context=self.context,
            universes=[slot.universe for slot in self.slots],
            semantics="open",
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
        step = engine.step([slot.model for slot in self.slots])
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
        records: list[IterationRecord],
        check: _Check,
        violated: str | None = None,
        cex: Run | None = None,
        scratch: _IterationScratch = _NO_WORK,
        *,
        fast: bool = False,
        gained: int = 0,
    ) -> None:
        """Record an iteration; publish its metrics and ``iteration.finished``."""
        models = [slot.model for slot in self.slots]
        stats = check.stats
        record = IterationRecord(
            index=check.index,
            model_states=sum(len(model.states) for model in models),
            model_transitions=sum(len(model.transitions) for model in models),
            model_refusals=sum(len(model.refusals) for model in models),
            closure_states=sum(len(closure.states) for closure in check.closures),
            closure_transitions=sum(closure.transition_count for closure in check.closures),
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

    def _finish(
        self,
        verdict: Verdict,
        records: list[IterationRecord],
        check: _Check | None,
        witness: Run | None = None,
        kind: str | None = None,
    ) -> SynthesisResult:
        """Build the result; emit the verdict (and dump degraded ones)."""
        result = SynthesisResult(
            verdict=verdict,
            property=self.property,
            iterations=tuple(records),
            final_models={slot.name: slot.model for slot in self.slots},
            final_closure=(
                check.closures[0] if check is not None and len(self.slots) == 1 else None
            ),
            violation_witness=witness,
            violation_kind=kind,
            quarantined=self.quarantine.unresolved(),
        )
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
        """Is ``run`` confirmed by probing what the rest of the system offers?

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

    def _quarantine_push(self, run: Run, *, probe: bool) -> None:
        """Quarantine a counterexample; an admission is a recorded anomaly."""
        if self.quarantine.push(run, probe=probe):
            self.tracer.event(
                "quarantine.admitted", quarantine_size=len(self.quarantine), probe=probe
            )
            self.tracer.anomaly(
                "quarantine_admission",
                counterexample=repr(run),
                quarantine_size=len(self.quarantine),
            )

    def _undecided(self, run: Run, scratch: _IterationScratch, *, probe: bool) -> None:
        """Count an inconclusive decision and quarantine its counterexample."""
        scratch.inconclusive += 1
        self._quarantine_push(run, probe=probe)

    def _confirm(self, run: Run, trusted: bool, scratch: _IterationScratch, *, probe: bool) -> None:
        """Report ``run`` as a real violation — if its tests may witness one.

        Lemma 6: no real violation without a validated fault-free run;
        an untrusted confirmation is retried later instead.
        """
        if not trusted:
            self._quarantine_push(run, probe=probe)
            return
        scratch.real_violation = True
        scratch.violation = run

    # ---------------------------------------------------------------- testing

    def _execute_supervised(
        self,
        slot: _Slot,
        case: TestCase,
        scratch: _IterationScratch,
        *,
        quarantine_run: Run | None,
        probe: bool,
    ) -> RobustExecution | None:
        """One supervised execution (retries, deadlines, validation).

        Returns ``None`` when the execution could not be completed
        fault-free, after quarantining ``quarantine_run`` — the caller
        must then treat the counterexample as *undecided*: no learning,
        no verdict (Lemma 6).
        """
        with self.tracer.span("test.execute", steps=len(case.steps)):
            outcome = self.robust.execute(slot.component, case, port=self.port)
        scratch.tests += outcome.attempts
        scratch.retries += outcome.retries
        scratch.timeouts += outcome.timeouts
        scratch.replays += outcome.replays_performed
        scratch.test_verdict = outcome.verdict
        if outcome.inconclusive:
            scratch.inconclusive += 1
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

    def _testcase(self, cex: Run, slot: _Slot) -> TestCase:
        """The projection of ``cex`` onto ``slot`` as a test case."""
        if self._bare:
            steps = tuple(TestStep(i.inputs, i.outputs) for i in cex.trace)
            return TestCase(name="counterexample-test", steps=steps, source_run=cex)
        return test_case_from_counterexample(
            cex,
            component_index=slot.index,
            inputs=slot.component.inputs,
            outputs=slot.component.outputs,
        )

    # ------------------------------------------------------------ test and learn

    def _test_and_learn(
        self, check: _Check, violated: str, batch: list[Run], scratch: _IterationScratch
    ) -> tuple[Run, bool]:
        """Work through the batch and the quarantined counterexamples.

        The work list is the checker's batch plus every quarantined
        counterexample from earlier iterations (an inconclusive test is
        retried here, not forgotten).  Entries are handled in order, on
        every slot, each executed, replayed and merged before the next.
        Each entry carries its probing route: quarantined runs keep the
        route they were pushed with.  Returns ``(counterexample, real)``.
        """
        composed = check.composed
        work: list[tuple[Run, bool]] = [
            (candidate, self._needs_probing(composed, violated, candidate)) for candidate in batch
        ]
        fresh = {repr(candidate) for candidate in batch}
        work.extend(entry for entry in self.quarantine.drain() if repr(entry[0]) not in fresh)
        for position, (candidate, probing) in enumerate(work):
            saved = [slot.model for slot in self.slots]  # an entry that raises merges nothing
            try:
                if probing:
                    self._test_deadlock(candidate, scratch)
                else:
                    self._test_property(candidate, scratch)
            except (LearningError, *HOST_FAILURES) as error:
                for slot, model in zip(self.slots, saved):
                    slot.model = model
                if isinstance(error, LearningError) and not any(
                    getattr(slot.component, "fault_injection_active", False) for slot in self.slots
                ):
                    # Without fault injection a contradiction is genuine
                    # non-determinism — unless a later counterexample
                    # went stale mid-batch, which is sound to skip.
                    if position == 0:
                        raise
                    continue
                # A host failure, or chaos-poisoned knowledge (validation is
                # probabilistic: a corrupted recording can survive its
                # replays): undecided, retried in a later iteration.
                self._undecided(candidate, scratch, probe=probing)
            else:
                if scratch.real_violation:
                    return (scratch.violation if scratch.violation is not None else candidate), True
        return batch[0], False

    def _test_property(self, cex: Run, scratch: _IterationScratch) -> None:
        """Test a property counterexample on every slot; learn or confirm it."""
        chaos_free = self._chaos_free(cex)
        trusted = []
        for slot in self.slots:
            outcome = self._execute_supervised(
                slot, self._testcase(cex, slot), scratch, quarantine_run=cex, probe=False
            )
            if outcome is None:
                return  # inconclusive: quarantined, nothing more merged
            if chaos_free and outcome.execution.verdict is TestVerdict.CONFIRMED:
                trusted.append(self._trusted(slot, outcome))
            else:
                # §4.2: a chaos-visiting run is never a run of the concrete
                # system; the confirmed behavior is learning material.
                self._learn_execution(slot, outcome, scratch)
        if len(trusted) == len(self.slots):
            # Only reachable with fast_conflict disabled: the violation
            # lives entirely in the synthesized part — a real conflict.
            self._confirm(cex, all(trusted), scratch, probe=False)

    def _test_deadlock(self, cex: Run, scratch: _IterationScratch) -> None:
        """Confirm or refute a composed deadlock by testing and probing."""
        prefixes: list[tuple[TestCase, State]] = []
        trusted, refuted = True, False
        for slot in self.slots:
            testcase = self._testcase(cex, slot)
            outcome = self._execute_supervised(
                slot, testcase, scratch, quarantine_run=cex, probe=True
            )
            if outcome is None:
                return  # inconclusive: quarantined, nothing more merged
            if outcome.execution.verdict is not TestVerdict.CONFIRMED:
                # The component already left the predicted path: pure learning.
                self._learn_execution(slot, outcome, scratch)
                refuted = True
                continue
            # The prefix is real; where the slot stands after it is known
            # by determinism.
            observed = self._outcome_replay(slot, outcome, scratch).observed_run
            scratch.observed = observed
            with self.tracer.span("learn.merge", verdict="confirmed-prefix"):
                slot.model = self._layers.learn_regular(
                    slot.model, observed, labeler=slot.labeler
                )
            prefixes.append((testcase, observed.last_state))
            trusted = trusted and self._trusted(slot, outcome)
        if refuted:
            return

        # The composition deadlocks in the final configuration; whether
        # the *system* does depends on what the real components serve.
        states = [state for _, state in prefixes]
        context_state = cex.last_state[0] if self.context is not None else None
        decided = True
        for position, (testcase, _) in enumerate(prefixes):
            outcome = self._probe(position, states, context_state, testcase, cex, scratch)
            if outcome is None:
                return  # a probe was inconclusive: quarantined
            served, slot_decided = outcome
            if served:
                return  # a joint step of the real system exists: re-verify
            decided = decided and slot_decided
        if decided:
            self._confirm(cex, trusted, scratch, probe=True)

    # ----------------------------------------------------------------- probing

    def _reactions(self, slot: _Slot, state: State) -> _Moves:
        """What ``slot``'s closure may do at ``state``, each marked known or not.

        A known reaction decides its inputs (determinism); the unknown
        ones are the universe interactions that are not refused.
        """
        model = slot.model
        moves: _Moves = [(t.interaction, True) for t in model.automaton.transitions_from(state)]
        decided = {interaction.inputs for interaction, _ in moves}
        refused = model.refused(state)
        if self.refusal_mode == "deterministic":
            decided |= {interaction.inputs for interaction in refused}
        moves.extend(
            (interaction, False)
            for interaction in slot.universe
            if interaction.inputs not in decided and interaction not in refused
        )
        return moves

    def _offers(
        self, position: int, states: Sequence[State], context_state: State | None
    ) -> dict[frozenset[str], dict[frozenset[str], bool]]:
        """The reactions the rest of the system offers slot ``position``.

        An offer is a joint step of the context and the other slots'
        current closures (Definition 3, open matching).  It asks the slot
        to consume the offered outputs it listens to and to produce the
        inputs the others expect from it.  Returns ``inputs → {expected
        outputs → every other part of some such step is known}``.
        """
        parties: list[tuple[frozenset[str], frozenset[str], _Moves]] = []
        if self.context is not None:
            moves = [(t.interaction, True) for t in self.context.transitions_from(context_state)]
            parties.append((self.context.inputs, self.context.outputs, moves))
        for other, (slot, state) in enumerate(zip(self.slots, states)):
            if other != position:
                moves = self._reactions(slot, state)
                parties.append((slot.component.inputs, slot.component.outputs, moves))
        steps: _Moves = [(Interaction(), True)]
        seen_in = seen_out = frozenset()
        for inputs, outputs, moves in parties:
            steps = [
                (step.union(move), known and move_known)
                for step, known in steps
                for move, move_known in moves
                if step.inputs & outputs == move.outputs & seen_in
                and move.inputs & seen_out == step.outputs & inputs
            ]
            seen_in, seen_out = seen_in | inputs, seen_out | outputs
        slot = self.slots[position]
        offers: dict[frozenset[str], dict[frozenset[str], bool]] = {}
        for step, known in steps:
            expected = offers.setdefault(step.outputs & slot.component.inputs, {})
            outputs = step.inputs & slot.component.outputs
            expected[outputs] = expected.get(outputs, False) or known
        return offers

    def _probe(
        self,
        position: int,
        states: Sequence[State],
        context_state: State | None,
        prefix: TestCase,
        cex: Run,
        scratch: _IterationScratch,
    ) -> tuple[bool, bool] | None:
        """Ask slot ``position`` for the reactions the others offer it.

        Offers are grouped by the inputs the slot would see and visited
        in sorted order; a known reaction decides its group without a
        test, and so does a recorded refusal.  Otherwise the slot is
        driven down its confirmed prefix and offered the group's inputs
        with the smallest expected output set; the probe merges like any
        test, so a diverging reaction also refuses the alternatives.

        Returns ``(served, decided)``: *served* when the slot's reaction
        completes a joint step whose other parts are all known — a step
        of the real system; *decided* when every group's reaction is
        known or refused.  ``None`` when a probe was inconclusive (the
        counterexample is then quarantined).
        """
        slot = self.slots[position]
        state = states[position]
        offers = self._offers(position, states, context_state)
        known = [t.interaction for t in slot.model.automaton.transitions_from(state)]
        refused = slot.model.refused(state)
        decided = True
        for probe_inputs in sorted(offers, key=sorted):
            expected = offers[probe_inputs]
            reaction = next((i for i in known if i.inputs == probe_inputs), None)
            if reaction is not None:
                if expected.get(reaction.outputs & slot.linked):
                    return True, decided
                continue  # the known reaction completes no step: nothing to probe
            if self._refuses(refused, probe_inputs, expected):
                continue
            representative = sorted(expected, key=sorted)[0]
            probe_case = TestCase(
                name=f"{prefix.name}+probe",
                steps=(*prefix.steps, TestStep(probe_inputs, representative)),
                source_run=cex,
            )
            outcome = self._execute_supervised(
                slot, probe_case, scratch, quarantine_run=None, probe=True
            )
            if outcome is None:
                # This offer could not be decided fault-free: park the whole
                # counterexample (undecided, not confirmed) and retry the
                # probing in a later iteration.
                self._quarantine_push(cex, probe=True)
                return None
            self._learn_execution(slot, outcome, scratch)
            if outcome.execution.verdict is TestVerdict.BLOCKED:
                decided = decided and self._refuses(
                    slot.model.refused(state), probe_inputs, expected
                )
                continue
            observed = scratch.observed
            assert observed is not None and observed.steps
            if expected.get(observed.steps[-1][0].outputs & slot.linked):
                return True, decided
        return False, decided

    def _refuses(
        self, refused: frozenset[Interaction], inputs: frozenset[str], expected
    ) -> bool:
        """Do the recorded refusals already rule out every expected reaction?"""
        if self.refusal_mode == "deterministic":
            return any(refusal.inputs == inputs for refusal in refused)
        return all(Interaction(inputs, outputs) in refused for outputs in expected)

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
