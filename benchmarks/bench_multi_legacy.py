"""E-multi: the §7 multi-legacy extension, quantified.

The paper conjectures the benefit of parallel learning "depends on the
degree in which the known context restricts their interaction".
Measured here: two mutually-restricting legacy shuttles are proven with
each model learned only as far as their interplay requires; faults that
exist only in the interplay (forgetful front) are found as real
violations; a halting component yields a confirmed real deadlock.
"""

from repro import railcab
from repro.automata import Automaton
from repro.legacy import LegacyComponent
from repro.synthesis import MultiLegacySynthesizer, Verdict

LABELERS = {
    "frontShuttle": railcab.front_state_labeler,
    "rearShuttle": railcab.rear_state_labeler,
}


def run_pair(front, rear):
    return MultiLegacySynthesizer(
        None, [front, rear], railcab.PATTERN_CONSTRAINT, labelers=LABELERS
    ).run()


def test_two_correct_legacy_shuttles_proven(benchmark):
    result = benchmark(
        lambda: run_pair(
            railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)
        )
    )
    assert result.verdict is Verdict.PROVEN
    # Parallel learning converges for both models…
    assert set(result.final_models) == {"frontShuttle", "rearShuttle"}
    # …and mutual restriction keeps the learned parts small.
    rear_bound = railcab.correct_rear_shuttle(convoy_ticks=1).state_bound
    assert len(result.final_models["rearShuttle"].states) <= rear_bound


def test_interplay_fault_found(benchmark):
    result = benchmark(
        lambda: run_pair(
            railcab.forgetful_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)
        )
    )
    assert result.verdict is Verdict.REAL_VIOLATION
    assert result.violation_kind == "property"


def test_partial_learning_with_overbuilt_partner(benchmark):
    def run():
        return run_pair(
            railcab.correct_front_shuttle(), railcab.overbuilt_rear_shuttle(extra_states=15)
        )

    result = benchmark(run)
    assert result.verdict is Verdict.PROVEN
    bound = railcab.overbuilt_rear_shuttle(extra_states=15).state_bound
    assert len(result.final_models["rearShuttle"].states) < bound


def test_cross_component_deadlock_confirmed(benchmark):
    halting_front = Automaton(
        inputs=railcab.REAR_TO_FRONT,
        outputs=railcab.FRONT_TO_REAR,
        transitions=[
            ("start", (), (), "start"),
            ("start", ("convoyProposal",), (), "halted"),
        ],
        initial=["start"],
        name="frontShuttle(halting)",
    )

    def run():
        return run_pair(
            LegacyComponent(halting_front, name="frontShuttle"),
            railcab.correct_rear_shuttle(convoy_ticks=1),
        )

    result = benchmark(run)
    assert result.verdict is Verdict.REAL_VIOLATION
    assert result.violation_kind == "deadlock"
