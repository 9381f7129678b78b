#!/usr/bin/env python3
"""Regenerate the measured numbers quoted in EXPERIMENTS.md.

Runs the headline experiments end to end and prints the tables the
documentation cites, so reviewers can diff documentation against
reality in one command::

    python tools/collect_results.py
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    IntegrationSynthesizer,
    MultiLegacySynthesizer,
    SynthesisSettings,
    railcab,
)
from repro.baselines import (  # noqa: E402
    LStarLearner,
    MembershipOracle,
    PerfectEquivalenceOracle,
    vasilevskii_bound,
    w_method_suite,
)
from repro.legacy import interface_of  # noqa: E402


def run_single(component, **kwargs):
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        component,
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        **kwargs,
    ).run()


def banner(text: str) -> None:
    print()
    print(f"--- {text} " + "-" * max(0, 66 - len(text)))


def headline() -> None:
    banner("Figure 6/7: the running example")
    faulty = run_single(railcab.faulty_rear_shuttle())
    correct = run_single(railcab.correct_rear_shuttle(convoy_ticks=1))
    print(
        f"faulty shuttle : {faulty.verdict.value}, {faulty.iteration_count} iterations, "
        f"{faulty.total_tests} tests, fast conflict = {faulty.iterations[-1].fast_conflict}"
    )
    print(
        f"correct shuttle: {correct.verdict.value}, {correct.iteration_count} iterations, "
        f"{correct.total_tests} tests, learned {correct.learned_states} states"
    )


def claim_c2() -> None:
    banner("Claim C2 + §6: ours vs L* on overbuilt shuttles")
    print(f"{'extra':>6} {'|M_r|':>6} {'ours iters':>11} {'ours tests':>11} "
          f"{'learned':>8} {'L* member':>10} {'L* equiv':>9}")
    for extra in (2, 5, 10, 20, 30):
        component = railcab.overbuilt_rear_shuttle(extra_states=extra)
        ours = run_single(railcab.overbuilt_rear_shuttle(extra_states=extra))
        universe = interface_of(component).universe()
        learner = LStarLearner(
            MembershipOracle(railcab.overbuilt_rear_shuttle(extra_states=extra)),
            universe,
            PerfectEquivalenceOracle(component._hidden, universe),
        )
        learner.learn()
        print(
            f"{extra:>6} {component.state_bound:>6} {ours.iteration_count:>11} "
            f"{ours.total_tests:>11} {ours.learned_states:>8} "
            f"{learner.statistics.membership_queries:>10} "
            f"{learner.statistics.equivalence_queries:>9}"
        )


def conformance_cost() -> None:
    banner("§6: W-method suite sizes vs Vasilevskii bound")
    component = railcab.correct_rear_shuttle(convoy_ticks=1)
    universe = interface_of(component).universe()
    learner = LStarLearner(
        MembershipOracle(component),
        universe,
        PerfectEquivalenceOracle(component._hidden, universe),
    )
    dfa = learner.learn()
    print(f"hypothesis size k={dfa.size}, |Σ|={len(universe)}")
    for slack in (0, 1, 2):
        suite = w_method_suite(dfa, universe, state_bound=dfa.size + slack)
        bound = vasilevskii_bound(dfa.size, dfa.size + slack, len(universe))
        print(f"  slack {slack}: suite = {len(suite):>6}, bound = {bound:>7}")


def batching() -> None:
    banner("§7 optimisation: counterexamples per iteration")
    for k in (1, 3, 5):
        result = run_single(
            railcab.correct_rear_shuttle(convoy_ticks=1),
            settings=SynthesisSettings(counterexamples_per_iteration=k),
        )
        print(f"  k={k}: {result.iteration_count} verification rounds, {result.total_tests} tests")


def multi_legacy() -> None:
    banner("§7 future work: two legacy shuttles")
    labelers = {
        "frontShuttle": railcab.front_state_labeler,
        "rearShuttle": railcab.rear_state_labeler,
    }
    result = MultiLegacySynthesizer(
        None,
        [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)],
        railcab.PATTERN_CONSTRAINT,
        labelers=labelers,
    ).run()
    print(
        f"two correct   : {result.verdict.value}, {result.iteration_count} iterations, "
        f"{result.total_tests} tests, {result.learned_states} states learned in all"
    )
    for name, model in sorted(result.final_models.items()):
        print(f"  {name}: {len(model.states)} states / {len(model.transitions)} transitions learned")
    result = MultiLegacySynthesizer(
        None,
        [railcab.forgetful_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=1)],
        railcab.PATTERN_CONSTRAINT,
        labelers=labelers,
    ).run()
    print(
        f"forgetful front: {result.verdict.value} ({result.violation_kind}), "
        f"{result.iteration_count} iterations"
    )


def main() -> int:
    started = time.time()
    headline()
    claim_c2()
    conformance_cost()
    batching()
    multi_legacy()
    print(f"\ntotal wall time: {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
