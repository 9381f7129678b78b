"""Multiple legacy components: the paper's §7 extension.

    "The approach can, however, be extended to multiple legacy
    components, by using the parallel combination of multiple
    behavioral models.  The iterative synthesis will then improve all
    these models in parallel."  (§7)

:class:`MultiLegacySynthesizer` adapts the constructor of
:class:`~repro.synthesis.driver.Synthesizer` — the one loop for one to n
slots — to a list of components with per-name universes and labelers.
Every counterexample is projected onto, tested on and learned into
every slot, and a composed deadlock is confirmed by probing each slot
with the joint steps the context and the other slots' closures offer it
(see :mod:`repro.synthesis.driver`).

The paper "can currently provide no experience whether such a parallel
learning is beneficial" and conjectures that the benefit depends on
"the degree in which the known context restricts their interaction" —
``benchmarks/bench_multi_legacy.py`` measures exactly that.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from ..automata.automaton import Automaton
from ..automata.interaction import InteractionUniverse
from ..legacy.component import LegacyComponent

# The loop's layer entry points, resolved through this module by the
# synthesizer (see ``Synthesizer._layers``).
from ..logic.counterexample import counterexample, counterexamples  # noqa: F401
from ..logic.formulas import Formula
from ..testing.replay import replay  # noqa: F401
from .driver import SynthesisResult, Synthesizer
from .initial import StateLabeler
from .learning import RefusalMode, learn_blocked, learn_regular, refuse  # noqa: F401
from .settings import SynthesisSettings

__all__ = ["MultiLegacySynthesizer"]

#: Default iteration budget of :class:`MultiLegacySynthesizer` (higher
#: than the single-placement default: n models learn in parallel).
DEFAULT_MULTI_MAX_ITERATIONS = 1000


class MultiLegacySynthesizer(Synthesizer):
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
    """

    _synthesizer = "MultiLegacySynthesizer"
    _layers = sys.modules[__name__]
    _default_iterations = DEFAULT_MULTI_MAX_ITERATIONS

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
        universes = universes or {}
        labelers = labelers or {}
        super().__init__(
            context,
            components,
            property,
            universes=[universes.get(component.name) for component in components],
            labelers=[labelers.get(component.name) for component in components],
            refusal_mode=refusal_mode,
            fast_conflict=fast_conflict,
            settings=settings,
            port=port,
        )

    # Each synthesizer defines its own ``run`` entry point: the attribute
    # outside-in profilers rebind.
    def run(self) -> SynthesisResult:
        """Execute the parallel loop until proof, real violation, or budget."""
        return super().run()
