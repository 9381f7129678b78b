"""Regression tests over the committed shrunk scenario fixtures.

Every JSON file under ``tests/fixtures/scenarios/`` is a disagreement
the conformance campaign found and minimized (see
``docs/conformance.md``).  Each fixture's spec is rebuilt and re-judged
here so the original phenomenon stays pinned:

* its stored expectation must still match freshly derived
  full-composition ground truth (specs are self-certifying);
* the behavior recorded in the fixture's ``expect`` block must still
  hold (a BBC false alarm stays a *detected and explained* false alarm;
  a chaos degradation stays sound — never a crash, never a wrong
  definite verdict).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.logic.formulas import conjunction
from repro.obs.flight import NULL_FLIGHT_RECORDER
from repro.synthesis.multi import MultiLegacySynthesizer
from repro.synthesis.settings import SynthesisSettings
from repro.testing import (
    CampaignConfig,
    ScenarioSpec,
    baseline_verdicts,
    build_scenario,
    evaluate_scenario,
    ground_truth,
    run_scenario,
)
from repro.testing.faults import FaultProfile

FIXTURES = sorted(
    (pathlib.Path(__file__).parent / "fixtures" / "scenarios").glob("*.json")
)


def load(path: pathlib.Path) -> dict:
    payload = json.loads(path.read_text())
    assert payload["format"] == 1
    return payload


def test_fixture_directory_is_populated():
    assert FIXTURES, "shrunk scenario fixtures are missing"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_spec_is_self_certifying(path):
    payload = load(path)
    scenario = build_scenario(ScenarioSpec.from_dict(payload["spec"]))
    assert ground_truth(scenario)["scenario"] == scenario.spec.expectation


def test_bbc_false_alarm_fixture_stays_explained():
    payload = load(
        pathlib.Path(__file__).parent
        / "fixtures"
        / "scenarios"
        / "bbc-false-alarm-until.json"
    )
    scenario = build_scenario(ScenarioSpec.from_dict(payload["spec"]))
    # The synthesis loop proves the conformant component across the
    # default matrix...
    evaluation = evaluate_scenario(scenario, with_baselines=True)
    assert evaluation.ok, evaluation.disagreements
    # ...while BBC still raises its (explained) false violation on the
    # very slots the fixture recorded.
    rows = baseline_verdicts(scenario)
    for slot_name in payload["expect"]["bbc_false_alarm"]:
        assert rows[slot_name]["bbc_false_alarm"] == "yes"
        assert rows[slot_name]["bbc_expected"] == "proven"
        assert rows[slot_name]["lstar"] == "proven"


@pytest.mark.parametrize("synthesizer", ["single", "multi"])
def test_chaos_silent_reset_fixture_degrades_soundly(synthesizer):
    payload = load(
        pathlib.Path(__file__).parent
        / "fixtures"
        / "scenarios"
        / "chaos-silent-reset-degradation.json"
    )
    scenario = build_scenario(ScenarioSpec.from_dict(payload["spec"]))
    allowed = set(payload["expect"]["chaos_mild_verdict"])
    # Before the fix this crashed with SynthesisError ("no learning
    # progress ... contradicts §4.4"); a silent crash-reset inside the
    # 200-step output-free idle trace must instead degrade soundly —
    # in both synthesizers, which share one zero-progress rule.
    for fault_seed in payload["expect"]["fault_seeds"]:
        # No blackbox: it would rewrite a multi-megabyte dump at each of
        # these runs' many anomalies, and a failure replays from its seed.
        settings = SynthesisSettings(
            fault_profile=FaultProfile.mild(fault_seed), flight_recorder=NULL_FLIGHT_RECORDER
        )
        if synthesizer == "multi":
            (name,) = scenario.architecture.legacy_placements
            extraction = scenario.architecture.context_for(name)
            result = MultiLegacySynthesizer(
                extraction.context,
                [scenario.components[name]],
                conjunction(list(extraction.constraints)),
                settings=settings,
            ).run()
            assert result.verdict.value in allowed, (fault_seed, result.verdict)
            continue
        verdicts = run_scenario(scenario, settings)
        assert verdicts["slot0"] in allowed, (fault_seed, verdicts)
        evaluation = evaluate_scenario(scenario, (CampaignConfig("chaos-mild", settings),))
        assert evaluation.ok, (fault_seed, evaluation.disagreements)
