"""Golden iteration records of the synthesis loop.

Five runs are pinned record by record against
``tests/fixtures/golden_records.json``: the RailCab convoy, the
two-legacy convoy (testing one and two counterexamples per iteration),
one factory scenario whose product crosses 2048 joint states, and the
convoy testing two counterexamples per iteration.  Every field of every
:class:`IterationRecord` — counters, counterexamples and observed runs
included — must match the fixture exactly, so any change to the
product, checker, counterexample, test or learning steps that moves a
verdict or a counter shows up here, iteration by iteration.

Beyond the goldens, every single placement of factory seeds 0–39 is
pinned by the sha256 of its encoded records
(``tests/fixtures/placement_digests.json``).

Values are encoded canonically (sets sorted, enums by value) so the
fixtures are independent of ``PYTHONHASHSEED``.  Regenerate them only
when a record change is intended::

    PYTHONPATH=src python tests/test_loop_determinism.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import railcab
from repro.automata.interaction import Interaction
from repro.integration import integrate
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings
from repro.synthesis.multi import MultiLegacySynthesizer
from repro.testing.faults import FAULT_SEED_ENV
from repro.testing.scenario import generate_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "golden_records.json"
DIGESTS = Path(__file__).parent / "fixtures" / "placement_digests.json"

#: Factory seeds whose single placements are pinned by record digest.
DIGEST_SEEDS = range(40)

#: A factory seed whose product reaches 3034 joint states and which ends
#: in a real violation after five learning iterations.
LARGE_SCENARIO_SEED = 125


def encode(value):
    """A JSON value for ``value`` that does not depend on hash order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: encode(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Interaction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((encode(item) for item in value), key=repr)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _convoy(counterexamples: int = 1):
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=2),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        settings=SynthesisSettings(counterexamples_per_iteration=counterexamples),
        port="rearRole",
    ).run()


def _two_legacy_convoy(counterexamples: int = 1):
    return MultiLegacySynthesizer(
        None,
        [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=2)],
        railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
        settings=SynthesisSettings(counterexamples_per_iteration=counterexamples),
    ).run()


def _large_scenario():
    scenario = generate_scenario(LARGE_SCENARIO_SEED)
    report = integrate(scenario.architecture, scenario.components)
    (result,) = report.placements.values()
    return result


RUNS = {
    "convoy": _convoy,
    "two-legacy-convoy": _two_legacy_convoy,
    "large-scenario": _large_scenario,
    # Several counterexamples per failed check: each one is tested,
    # replayed and merged in work-list order, on every slot.
    "convoy-k2": lambda: _convoy(counterexamples=2),
    "two-legacy-convoy-k2": lambda: _two_legacy_convoy(counterexamples=2),
}


def capture() -> dict:
    return {
        name: {
            "verdict": run.verdict.value,
            "records": [encode(record) for record in run.iterations],
        }
        for name, run in ((name, build()) for name, build in RUNS.items())
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_records_match_golden_fixture(golden, name, monkeypatch):
    # The fixture holds fault-free runs; injected faults legitimately
    # add retries (and may degrade a verdict), so the suite-wide
    # REPRO_FAULT_SEED must not reach these runs.
    monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
    run = RUNS[name]()
    expected = golden[name]
    assert run.verdict.value == expected["verdict"]
    assert len(run.iterations) == len(expected["records"])
    for record, pinned in zip(run.iterations, expected["records"]):
        fields = [field.name for field in dataclasses.fields(record)]
        assert fields == list(pinned), f"{name}: record fields changed"
        for field_name in fields:
            assert encode(getattr(record, field_name)) == pinned[field_name], (
                f"{name} iteration {record.index}: {field_name}"
            )


def test_large_scenario_has_more_than_2048_states(golden):
    records = golden["large-scenario"]["records"]
    assert max(record["composed_states"] for record in records) > 2048


def records_digest(result) -> str:
    """The sha256 of a run's encoded records."""
    text = json.dumps([encode(record) for record in result.iterations], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture_digests() -> dict:
    found = {}
    for seed in DIGEST_SEEDS:
        scenario = generate_scenario(seed)
        report = integrate(scenario.architecture, scenario.components)
        for name, result in sorted(report.placements.items()):
            found[f"seed{seed}/{name}"] = records_digest(result)
    return found


def test_factory_placements_match_digests(monkeypatch):
    monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
    assert capture_digests() == json.loads(DIGESTS.read_text(encoding="utf-8"))


def dump(golden: dict) -> str:
    """The fixture text: one compact line per record, for readable diffs."""
    compact = {"separators": (",", ":")}
    runs = []
    for name, run in golden.items():
        records = ",\n".join(json.dumps(record, **compact) for record in run["records"])
        runs.append(
            f'{json.dumps(name)}:{{"verdict":{json.dumps(run["verdict"])},"records":[\n{records}]}}'
        )
    return "{\n" + ",\n".join(runs) + "}\n"


if __name__ == "__main__":
    FIXTURE.write_text(dump(capture()), encoding="utf-8")
    DIGESTS.write_text(json.dumps(capture_digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} and {DIGESTS}", file=sys.stderr)
