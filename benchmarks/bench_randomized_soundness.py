"""E-claims C1, randomized: verdicts vs ground truth on mutants.

"It can pin-point real failures without false negatives right from the
beginning" — swept here over seeded random deterministic components and
random mutants of the correct chain server: for every single one, the
synthesis verdict must equal the white-box ground truth of
``context ∥ M_r ⊨ φ ∧ ¬δ``.

The scenario-factory sweeps below generalize the same claim across the
generated architecture space (multi-slot, joint, planted violations,
clocked and unclocked properties) and across the configuration matrix
— incremental on/off and chaos — including a scenario whose product
exceeds 2048 states.  ``tools/campaign.py`` runs the same harness at
thousand-scenario scale.
"""

from repro.automata import compose
from repro.logic import ModelChecker, parse
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict
from repro.testing import (
    LARGE_EVERY,
    evaluate_scenario,
    generate_scenario,
    ground_truth,
)
from repro.workloads import (
    chain_server,
    mutate_component,
    ping_client,
    random_deterministic_component,
)

PROPERTY = parse("AG (client.waiting -> AF[1,3] client.idle)")


def verdict_and_truth(component):
    result = IntegrationSynthesizer(
        ping_client(),
        component,
        PROPERTY,
        labeler=lambda s: {f"server.{s}"},
        settings=SynthesisSettings(max_iterations=300),
    ).run()
    truth = compose(ping_client(), component._hidden)
    checker = ModelChecker(truth)
    ground = checker.holds(PROPERTY) and checker.holds(parse("AG not deadlock"))
    return result.verdict, ground


def test_random_components_soundness(benchmark):
    def sweep():
        outcomes = []
        for seed in range(20):
            component = random_deterministic_component(seed, n_states=4)
            outcomes.append((seed, *verdict_and_truth(component)))
        return outcomes

    outcomes = benchmark(sweep)
    for seed, verdict, ground in outcomes:
        assert verdict is not Verdict.BUDGET_EXCEEDED, seed
        assert (verdict is Verdict.PROVEN) == ground, f"seed {seed}"


def test_mutant_sweep_soundness(benchmark):
    def sweep():
        outcomes = []
        base = chain_server(3)
        for seed in range(15):
            mutant = mutate_component(chain_server(3), seed, mutations=1)
            outcomes.append((seed, *verdict_and_truth(mutant)))
        del base
        return outcomes

    outcomes = benchmark(sweep)
    proven = sum(1 for _, verdict, _ in outcomes if verdict is Verdict.PROVEN)
    violated = sum(1 for _, verdict, _ in outcomes if verdict is Verdict.REAL_VIOLATION)
    # The sweep must contain both kinds (otherwise it tests nothing).
    assert proven > 0 and violated > 0
    for seed, verdict, ground in outcomes:
        assert (verdict is Verdict.PROVEN) == ground, f"mutant seed {seed}"


def test_scenario_matrix_soundness(benchmark):
    """Factory scenarios × the config matrix: zero disagreements.

    Every generated scenario carries a certified known answer; every
    configuration's verdict (and the derived overall verdict) must match
    the independently re-derived full-composition truth.
    """

    def sweep():
        return [evaluate_scenario(generate_scenario(seed, profile="tiny"))
                for seed in range(1, 13)]

    evaluations = benchmark(sweep)
    kinds = {evaluation.truth["scenario"] for evaluation in evaluations}
    assert kinds == {"proven", "violation"}  # both answers represented
    for evaluation in evaluations:
        assert evaluation.ok, (evaluation.spec.seed, evaluation.disagreements)


def test_large_scenario_soundness(benchmark):
    """A large scenario agrees across the matrix.

    Seed ``LARGE_EVERY`` generates a counter client big enough that the
    first verify iteration composes a product of more than 2048 states.
    """

    def run():
        scenario = generate_scenario(LARGE_EVERY, profile="default")
        states = sum(
            len(scenario.contexts[slot.name].states)
            for slot in scenario.spec.slots
        )
        return scenario, states, evaluate_scenario(scenario)

    scenario, client_states, evaluation = benchmark(run)
    assert client_states > 2048 / 4  # the composed product exceeds 2048 states
    assert ground_truth(scenario)["scenario"] == scenario.spec.expectation
    assert evaluation.ok, evaluation.disagreements
    degraded_configs = {entry.split(":")[0] for entry in evaluation.degraded}
    assert all("chaos" in entry for entry in degraded_configs)  # only faulted configs may degrade
