"""repro — Correct legacy component integration in Mechatronic UML.

A from-scratch reproduction of Giese, Henkler, Hirsch: *Combining
Formal Verification and Testing for Correct Legacy Component
Integration in Mechatronic UML* (Architecting Dependable Systems V,
LNCS 5135, 2008; presented at DSN 2007 WADS).

The library answers one question: *given a component-based real-time
architecture that embeds a legacy component whose behavior model is
unknown, is the integration correct?* — without reverse-engineering or
learning the whole legacy component.  The scheme combines:

* **compositional formal verification** of the context composed with a
  *safe over-approximation* (chaotic closure) of the legacy component,
* **counterexample-based testing** with deterministic replay against
  the real component, and
* **learning** of the observed behavior into ever more precise safe
  abstractions, until the property is proven or a real failure found.

The package root is the stable facade: ``integrate`` and
``SynthesisSettings``, both synthesizers with their result/record
types, ``result_to_dict`` (the versioned JSON export), and the full
error taxonomy are re-exported here and listed in ``__all__``.
Downstream code should import from ``repro`` directly; the deep module
paths remain importable but are not part of the stability contract.

Quickstart::

    from repro import IntegrationSynthesizer, Verdict, railcab

    synthesizer = IntegrationSynthesizer(
        railcab.front_role_automaton(),          # the context M_a^c
        railcab.faulty_rear_shuttle(),           # the legacy component M_r
        railcab.PATTERN_CONSTRAINT,              # the property φ
        labeler=railcab.rear_state_labeler,
    )
    result = synthesizer.run()
    assert result.verdict is Verdict.REAL_VIOLATION

Subpackages
-----------
``repro.automata``
    Discrete-time I/O automata, composition, refinement, chaotic closure.
``repro.logic``
    CCTL formulas, model checking, counterexamples, compositionality.
``repro.rtsc``
    Real-Time Statecharts and their unfolding semantics.
``repro.muml``
    Coordination patterns, connectors, components, architectures.
``repro.legacy``
    The executable black-box legacy component harness.
``repro.testing``
    Counterexample-based testing and deterministic replay.
``repro.synthesis``
    The iterative verify → test → learn loop (the paper's contribution).
``repro.baselines``
    Angluin's L*, W-method conformance testing, black-box checking.
``repro.railcab``
    The RailCab shuttle running example.
"""

from . import (
    automata,
    automotive,
    codegen,
    integration,
    legacy,
    logic,
    muml,
    persistence,
    railcab,
    rtsc,
    synthesis,
    testing,
    workloads,
)
from .integration import IntegrationReport, integrate
from .synthesis import (
    IntegrationSynthesizer,
    IterationRecord,
    MultiIterationRecord,
    MultiLegacySynthesizer,
    MultiSynthesisResult,
    SynthesisResult,
    SynthesisSettings,
    Verdict,
    result_to_dict,
)
from .errors import (
    BudgetExceededError,
    CompositionError,
    CounterexampleError,
    ExecutionError,
    FaultInjectionError,
    FormulaError,
    LearningError,
    ModelError,
    NotCompositionalError,
    ParseError,
    RefinementError,
    ReplayError,
    ReproError,
    SynthesisError,
    TestTimeoutError,
)

__version__ = "2.0.0"

__all__ = [
    "automata",
    "logic",
    "rtsc",
    "muml",
    "legacy",
    "testing",
    "synthesis",
    "railcab",
    "automotive",
    "workloads",
    "persistence",
    "integration",
    "codegen",
    "integrate",
    "IntegrationReport",
    "SynthesisSettings",
    "IntegrationSynthesizer",
    "SynthesisResult",
    "IterationRecord",
    "Verdict",
    "MultiLegacySynthesizer",
    "MultiSynthesisResult",
    "MultiIterationRecord",
    "result_to_dict",
    "ReproError",
    "ModelError",
    "CompositionError",
    "RefinementError",
    "FormulaError",
    "ParseError",
    "NotCompositionalError",
    "CounterexampleError",
    "ExecutionError",
    "FaultInjectionError",
    "TestTimeoutError",
    "ReplayError",
    "SynthesisError",
    "LearningError",
    "BudgetExceededError",
    "__version__",
]
