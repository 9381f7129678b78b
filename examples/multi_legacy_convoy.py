#!/usr/bin/env python3
"""Two legacy shuttles at once: the paper's §7 extension, running.

"The approach can … be extended to multiple legacy components, by using
the parallel combination of multiple behavioral models.  The iterative
synthesis will then improve all these models in parallel."  The paper
leaves this as future work; here it runs:

1. both convoy controllers are third-party black boxes — the
   integration is *proven* while both behavioral models are learned in
   parallel, each only as far as their mutual interaction requires;
2. a forgetful front shuttle (sends ``startConvoy`` but stays in
   no-convoy mode) is exposed as a *real* violation of the pattern
   constraint that only exists in the interplay of the two components;
3. a halting front shuttle produces a *real deadlock*, confirmed by
   probing each shuttle with the joint steps the other's closure offers
   it — the single-placement probing step, generalised to n slots.

Run with::

    python examples/multi_legacy_convoy.py
"""

from repro import railcab
from repro.synthesis import MultiLegacySynthesizer, Verdict

LABELERS = {
    "frontShuttle": railcab.front_state_labeler,
    "rearShuttle": railcab.rear_state_labeler,
}


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def integrate(front, rear, title: str):
    banner(title)
    synthesizer = MultiLegacySynthesizer(
        None,  # no modeled context: the legacy components face each other
        [front, rear],
        railcab.PATTERN_CONSTRAINT,
        labelers=LABELERS,
    )
    result = synthesizer.run()
    print(f"verdict: {result.verdict.value}")
    print(f"iterations: {result.iteration_count}, tests: {result.total_tests}")
    for name, model in sorted(result.final_models.items()):
        print(
            f"  learned for {name}: {len(model.states)} states, "
            f"{len(model.transitions)} transitions, {len(model.refusals)} refusals"
        )
    if result.violation_witness is not None:
        print(f"violation kind: {result.violation_kind}")
        print(f"witness: {result.violation_witness}")
    return result


def main() -> None:
    result = integrate(
        railcab.correct_front_shuttle(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        "Two correct legacy shuttles: expect PROVEN",
    )
    assert result.verdict is Verdict.PROVEN

    result = integrate(
        railcab.forgetful_front_shuttle(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        "Forgetful front shuttle: expect REAL-VIOLATION (property)",
    )
    assert result.verdict is Verdict.REAL_VIOLATION

    from repro.automata import Automaton
    from repro.legacy import LegacyComponent

    halting_front = LegacyComponent(
        Automaton(
            inputs=railcab.REAR_TO_FRONT,
            outputs=railcab.FRONT_TO_REAR,
            transitions=[
                ("start", (), (), "start"),
                ("start", ("convoyProposal",), (), "halted"),
            ],
            initial=["start"],
            name="frontShuttle(halting)",
        ),
        name="frontShuttle",
    )
    result = integrate(
        halting_front,
        railcab.correct_rear_shuttle(convoy_ticks=1),
        "Halting front shuttle: expect REAL-VIOLATION (deadlock)",
    )
    assert result.verdict is Verdict.REAL_VIOLATION
    assert result.violation_kind == "deadlock"


if __name__ == "__main__":
    main()
