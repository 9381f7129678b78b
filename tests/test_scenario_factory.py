"""The scenario factory, its known-answer oracle, and the shrinker.

Covers the conformance-campaign machinery itself: generation is
deterministic and hash-seed independent, every generated scenario's
certified expectation matches independently re-derived full-composition
truth, specs survive the JSON round-trip, the config matrix agrees on a
sweep of scenarios, the loop's verification engine matches the naive
from-scratch reference on that sweep, and the delta-debugging shrinker
minimizes failing specs while re-certifying their known answer.  The
committed regression fixtures under ``tests/fixtures/scenarios/`` are
exercised in ``test_scenario_fixtures.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.integration import integrate
from repro.testing import (
    ScenarioSpec,
    baseline_verdicts,
    build_scenario,
    ddmin,
    default_matrix,
    evaluate_scenario,
    generate_scenario,
    ground_truth,
    run_scenario,
    shrink_scenario,
    spec_fingerprint,
)
from tests.test_incremental import assert_same_records, on_scratch

SWEEP = range(1, 25)


# ------------------------------------------------------------- generation


def test_generation_is_deterministic():
    for seed in (1, 2, 12, 17):
        first = generate_scenario(seed, profile="tiny").spec
        second = generate_scenario(seed, profile="tiny").spec
        assert first == second
        assert spec_fingerprint(first) == spec_fingerprint(second)


def test_generation_fingerprints_pinned():
    """Accidental generator drift invalidates every recorded seed (and
    any fixture's ``found.generator_seed`` provenance) — pin two."""
    assert spec_fingerprint(generate_scenario(1, profile="tiny").spec) == "41b77adc3956"
    assert spec_fingerprint(generate_scenario(12, profile="tiny").spec) == "548292da57a3"


def test_sweep_covers_the_scenario_space():
    plants, families, slot_counts, joints = set(), set(), set(), set()
    for seed in range(1, 61):
        spec = generate_scenario(seed, profile="tiny").spec
        slot_counts.add(len(spec.slots))
        joints.add(spec.joint)
        for slot in spec.slots:
            plants.add(slot.plant)
            families.add(slot.family)
    assert plants == {"conform", "overbuilt", "slow-round", "refusal", "mutant"}
    assert families == {"response", "until", "safety"}
    assert slot_counts == {1, 2, 3}
    assert joints == {False, True}


def test_certified_expectations_match_derived_truth():
    for seed in SWEEP:
        scenario = generate_scenario(seed, profile="tiny")
        truth = ground_truth(scenario)
        assert truth["scenario"] == scenario.spec.expectation, seed
        if not scenario.spec.joint:
            for slot in scenario.spec.slots:
                assert truth[slot.name] == slot.expectation, (seed, slot.name)


def test_both_answers_are_represented():
    expectations = {generate_scenario(s, profile="tiny").spec.expectation for s in SWEEP}
    assert expectations == {"proven", "violation"}


def test_spec_round_trip_rebuilds_identically():
    for seed in (3, 7, 11):
        spec = generate_scenario(seed, profile="tiny").spec
        reloaded = ScenarioSpec.from_dict(spec.to_dict())
        assert reloaded == spec
        rebuilt = build_scenario(reloaded)
        assert ground_truth(rebuilt)["scenario"] == spec.expectation


# ------------------------------------------------------ verdict agreement


def test_baseline_config_tracks_truth_on_sweep():
    for seed in SWEEP:
        scenario = generate_scenario(seed, profile="tiny")
        verdicts = run_scenario(scenario)
        assert verdicts["scenario"] == scenario.spec.expectation, seed


def test_matrix_agreement_on_slice():
    for seed in (1, 3, 5, 8, 13):
        evaluation = evaluate_scenario(generate_scenario(seed, profile="tiny"))
        assert evaluation.ok, (seed, evaluation.disagreements)
        assert {outcome.config for outcome in evaluation.outcomes} == {
            "baseline",
            "chaos-mild",
        }


def test_engine_matches_scratch_reference_on_sweep(monkeypatch):
    """The loop's engine and the naive from-scratch reference agree.

    Each scenario goes through ``integrate()`` once on the engine and
    once on :class:`~tests.test_incremental.ScratchVerifier`: every
    placement and joint run must reach the same verdict through the
    same iteration records, apart from the engine's work counters.
    """

    def runs(scenario) -> dict:
        report = integrate(scenario.architecture, scenario.components)
        assert report.architecture.ok and not report.skipped_placements
        results = dict(report.placements)
        if report.joint is not None:
            results["joint"] = report.joint
        return results

    for seed in SWEEP:
        scenario = generate_scenario(seed, profile="tiny")
        engine = runs(scenario)
        reference = on_scratch(monkeypatch, lambda: runs(scenario))
        assert engine.keys() == reference.keys(), seed
        for key, result in engine.items():
            assert result.verdict is reference[key].verdict, (seed, key)
            assert_same_records(result, reference[key])


def test_joint_scenario_takes_the_joint_path():
    for seed in SWEEP:
        scenario = generate_scenario(seed, profile="tiny")
        if scenario.spec.joint and len(scenario.spec.slots) > 1:
            assert scenario.verdict_keys == ("joint",)
            verdicts = run_scenario(scenario)
            assert "joint" in verdicts
            assert verdicts["scenario"] == scenario.spec.expectation
            return
    pytest.fail("no joint scenario in sweep")


def test_bbc_cross_check_is_one_sided():
    """BBC may false-alarm (quiescence blind spot) but the campaign only
    fails on *missed* violations; L* with a perfect oracle must always
    reproduce the truth."""
    saw_false_alarm = False
    for seed in (1, 3, 12, 16):
        scenario = generate_scenario(seed, profile="tiny")
        truth = ground_truth(scenario)
        for name, row in baseline_verdicts(scenario).items():
            assert row["lstar"] == truth[name], (seed, name)
            if row["bbc_false_alarm"] == "yes":
                saw_false_alarm = True
            else:
                assert row["bbc"] == row["bbc_expected"], (seed, name)
    assert saw_false_alarm  # seed 12 exhibits it (committed as a fixture)


# --------------------------------------------------------------- shrinking


def test_ddmin_finds_minimal_failing_subset():
    items = list(range(20))
    failing = lambda subset: 3 in subset and 17 in subset
    assert sorted(ddmin(items, failing)) == [3, 17]
    # Single-element cause.
    assert ddmin(items, lambda subset: 11 in subset) == [11]
    # The whole list can be the minimum.
    assert ddmin([1, 2], lambda subset: len(subset) == 2) == [1, 2]


def test_shrink_rejects_passing_scenario():
    spec = generate_scenario(1, profile="tiny").spec
    with pytest.raises(ModelError):
        shrink_scenario(spec, lambda candidate: False)


def test_shrink_minimizes_and_recertifies():
    """Chase the seed-12 BBC false alarm down to its minimal core."""

    def bbc_false_alarm(spec):
        try:
            rows = baseline_verdicts(build_scenario(spec))
        except ModelError:
            return False
        return any(row["bbc_false_alarm"] == "yes" for row in rows.values())

    original = generate_scenario(12, profile="tiny").spec
    shrunk = shrink_scenario(original, bbc_false_alarm)
    assert bbc_false_alarm(shrunk)
    assert len(shrunk.slots) == 1
    slot = shrunk.slots[0]
    assert len(slot.hidden["transitions"]) <= len(original.slots[0].hidden["transitions"])
    assert len(slot.client["transitions"]) <= len(original.slots[0].client["transitions"])
    # Re-certified: the stamped expectation equals freshly derived truth.
    assert ground_truth(build_scenario(shrunk))["scenario"] == shrunk.expectation
    # 1-minimality: dropping any single hidden transition kills the failure.
    for index in range(len(slot.hidden["transitions"])):
        reduced = [
            transition
            for position, transition in enumerate(slot.hidden["transitions"])
            if position != index
        ]
        candidate = ScenarioSpec.from_dict(shrunk.to_dict())
        payload = dict(slot.hidden, transitions=reduced)
        candidate = ScenarioSpec.from_dict(
            {
                **shrunk.to_dict(),
                "slots": [{**slot.to_dict(), "hidden": payload}],
            }
        )
        assert not bbc_false_alarm(candidate), index


# --------------------------------------------------------- chaos soundness


def test_chaos_configs_never_give_wrong_definite_verdicts():
    """Fault-injected runs may degrade to budget-exceeded (recorded as
    ``degraded``), but a definite verdict must match the truth."""
    for seed in (2, 6, 9, 14):
        scenario = generate_scenario(seed, profile="tiny")
        evaluation = evaluate_scenario(scenario, default_matrix(seed))
        assert evaluation.ok, (seed, evaluation.disagreements)
        for entry in evaluation.degraded:
            assert "chaos" in entry, entry
