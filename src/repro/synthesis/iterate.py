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

The loop itself is :class:`~repro.synthesis.driver.Synthesizer`'s;
:class:`IntegrationSynthesizer` adapts its constructor to one placement
(and checks warm-start knowledge against the live component).

Termination (§4.4): every non-final iteration strictly increases
``|T| + |T̄|``, which is bounded for a finite deterministic component,
so the loop always ends in ``PROVEN`` or ``REAL_VIOLATION`` (the
``max_iterations`` budget is a safety net, not a semantic limit).
"""

from __future__ import annotations

import sys

from ..automata.automaton import Automaton
from ..automata.incomplete import IncompleteAutomaton
from ..automata.interaction import InteractionUniverse
from ..errors import SynthesisError
from ..legacy.component import LegacyComponent
from ..legacy.interface import interface_of

# The loop's layer entry points, resolved through this module by the
# synthesizer (see ``Synthesizer._layers``).
from ..logic.counterexample import counterexample, counterexamples  # noqa: F401
from ..logic.formulas import Formula
from ..testing.replay import replay  # noqa: F401
from .driver import IterationRecord, SynthesisResult, Synthesizer, Verdict
from .initial import StateLabeler
from .learning import RefusalMode, learn_blocked, learn_regular, refuse  # noqa: F401
from .settings import SynthesisSettings

__all__ = [
    "Verdict",
    "IterationRecord",
    "SynthesisResult",
    "IntegrationSynthesizer",
    "SynthesisSettings",
]


class IntegrationSynthesizer(Synthesizer):
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
        initial_knowledge: IncompleteAutomaton | None = None,
        validate_knowledge: bool = True,
        port: str = "port",
    ):
        super().__init__(
            context,
            [component],
            property,
            universes=[universe],
            labelers=[labeler],
            knowledge=[initial_knowledge],
            refusal_mode=refusal_mode,
            fast_conflict=fast_conflict,
            settings=settings,
            port=port,
        )
        self.component = self.slots[0].component
        if initial_knowledge is not None:
            self._check_knowledge_shape(initial_knowledge)
            if validate_knowledge:
                self._validate_knowledge(initial_knowledge)

    # -------------------------------------------------------- prior knowledge

    def _check_knowledge_shape(self, knowledge: IncompleteAutomaton) -> None:
        interface = interface_of(self.component)
        if (
            knowledge.inputs != interface.inputs
            or knowledge.outputs != interface.outputs
        ):
            raise SynthesisError(
                f"initial knowledge has signals I={sorted(knowledge.inputs)}/"
                f"O={sorted(knowledge.outputs)} but the component's interface is "
                f"I={sorted(interface.inputs)}/O={sorted(interface.outputs)}"
            )
        if knowledge.initial != frozenset({interface.initial_state}):
            raise SynthesisError(
                f"initial knowledge starts in {sorted(map(repr, knowledge.initial))} but the "
                f"component's initial state is {interface.initial_state!r}"
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

    # Each synthesizer defines its own ``run`` entry point: the attribute
    # outside-in profilers rebind.
    def run(self) -> SynthesisResult:
        """Execute the loop until proof, real violation, or budget."""
        return super().run()
