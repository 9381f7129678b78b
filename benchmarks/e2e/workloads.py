"""The five end-to-end workloads: pinned instances, fresh inputs, verdicts.

Every workload is a *pass*: an ordered list of instances, each of which
builds brand-new objects (architecture, components, labelers) for every
``integrate()`` call, so a cache keyed on repeated identical calls
cannot pass as a gain.  Each instance carries a fingerprint of its
definition; ``expected.json`` pins the fingerprints and the verdicts
derived once by full-composition model checking, and the runner refuses
to measure an instance whose definition drifted.

Only public API is used: ``repro.integration.integrate``,
``repro.railcab``, ``repro.workloads`` and ``repro.testing.scenario``
(plus ``repro.persistence``/``repro.legacy.remote.rehost_payload`` to
read an instance's automata for its fingerprint).

Run this file to re-derive ``expected.json`` (a changed workload is a
change to the benchmark, never part of a change that claims a gain)::

    PYTHONPATH=src python benchmarks/e2e/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import railcab
from repro.automata.composition import compose, compose_all
from repro.integration import integrate
from repro.legacy.remote import rehost_payload
from repro.logic.checker import ModelChecker
from repro.logic.formulas import DEADLOCK_FREE
from repro.muml import Architecture, Component, Port
from repro.persistence import automaton_from_dict, automaton_to_dict
from repro.synthesis import SynthesisSettings, Verdict
from repro.testing.scenario import (
    LARGE_EVERY,
    ScenarioSpec,
    SlotSpec,
    build_scenario,
    generate_scenario,
    ground_truth,
    spec_fingerprint,
)
from repro.workloads import counter_client, latency_server

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Workload names, in the order the runner interleaves their rounds.
WORKLOADS = ("convoy-long", "convoy-multi", "scenario-mix", "dense-large", "convoy-remote")

#: The scenario-mix pool is drawn once from this seed and pinned.  Pools
#: drawn per ``--seed`` moved the per-call median by up to 30% and the
#: mean by 4x between draws (a single 3-slot joint scenario can cost
#: 3.6 s against a 7 ms median), which no 10% bound survives; ``--seed``
#: therefore permutes the call order over the pinned pool instead.
POOL_SEED = 0
#: Scenarios per pass, of which ``POOL_LARGE`` cross the dense floor —
#: the factory's own one-in-``LARGE_EVERY`` rate, without the binomial
#: spread a free draw would add.
POOL_SIZE = 80
POOL_LARGE = 3

#: Verdict vocabulary shared with ``repro.testing.scenario.ground_truth``.
VERDICT_NAMES = {
    Verdict.PROVEN: "proven",
    Verdict.REAL_VIOLATION: "violation",
    Verdict.BUDGET_EXCEEDED: "budget-exceeded",
}


@dataclass(frozen=True)
class Call:
    """Fresh arguments for one ``integrate()`` call."""

    architecture: Architecture
    components: dict
    labelers: dict
    settings: SynthesisSettings | None = None


@dataclass(frozen=True)
class Instance:
    """One pinned input: its name, fingerprint and a fresh-call factory."""

    name: str
    fingerprint: str
    build: Callable[[], Call]
    certify: Callable[[], dict]


def _digest(document) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _labeled(component, labeler):
    """The component's hidden automaton with the labeler's propositions."""
    payload = dict(rehost_payload(component)["automaton"])
    payload["labels"] = {state: sorted(labeler(state)) for state in payload["states"]}
    return automaton_from_dict(payload)


def _truth(system, constraint) -> str:
    checker = ModelChecker(system)
    holds = checker.holds(constraint) and checker.holds(DEADLOCK_FREE)
    return "proven" if holds else "violation"


# ------------------------------------------------------------------ convoys


def _convoy_architecture() -> Architecture:
    """A modeled ``leader`` (front role) and a legacy ``follower``."""
    pattern = railcab.distance_coordination_pattern()
    front = Port("front", pattern.role("frontRole"), railcab.front_role_automaton())
    architecture = Architecture("convoy")
    architecture.add_component(Component("leader", [front]))
    architecture.add_legacy("follower")
    architecture.instantiate(
        pattern, {"frontRole": ("leader", "front"), "rearRole": ("follower", None)}
    )
    return architecture


def _two_legacy_architecture() -> Architecture:
    """Both convoy controllers are legacy code (the paper's §7)."""
    pattern = railcab.distance_coordination_pattern()
    architecture = Architecture("convoy2")
    architecture.add_legacy("leader")
    architecture.add_legacy("follower")
    architecture.instantiate(
        pattern, {"frontRole": ("leader", None), "rearRole": ("follower", None)}
    )
    return architecture


def _convoy(name: str, ticks: int, settings: SynthesisSettings | None) -> Instance:
    def build() -> Call:
        return Call(
            _convoy_architecture(),
            {"follower": railcab.correct_rear_shuttle(convoy_ticks=ticks)},
            {"follower": railcab.rear_state_labeler},
            settings,
        )

    def certify() -> dict:
        rear = _labeled(railcab.correct_rear_shuttle(convoy_ticks=ticks), railcab.rear_state_labeler)
        system = compose(railcab.front_role_automaton(), rear)
        return {"follower": _truth(system, railcab.PATTERN_CONSTRAINT)}

    fingerprint = _digest(
        {
            "context": automaton_to_dict(railcab.front_role_automaton()),
            "follower": rehost_payload(railcab.correct_rear_shuttle(convoy_ticks=ticks))["automaton"],
            "property": str(railcab.PATTERN_CONSTRAINT),
            "remote": settings is not None,
        }
    )
    return Instance(name, fingerprint, build, certify)


def _convoy_multi() -> Instance:
    def build() -> Call:
        return Call(
            _two_legacy_architecture(),
            {
                "leader": railcab.correct_front_shuttle(),
                "follower": railcab.correct_rear_shuttle(convoy_ticks=32),
            },
            {"leader": railcab.front_state_labeler, "follower": railcab.rear_state_labeler},
        )

    def certify() -> dict:
        system = compose_all(
            [
                _labeled(railcab.correct_front_shuttle(), railcab.front_state_labeler),
                _labeled(railcab.correct_rear_shuttle(convoy_ticks=32), railcab.rear_state_labeler),
            ]
        )
        return {"joint": _truth(system, railcab.PATTERN_CONSTRAINT)}

    fingerprint = _digest(
        {
            "leader": rehost_payload(railcab.correct_front_shuttle())["automaton"],
            "follower": rehost_payload(railcab.correct_rear_shuttle(convoy_ticks=32))["automaton"],
            "property": str(railcab.PATTERN_CONSTRAINT),
        }
    )
    return Instance("convoy-multi", fingerprint, build, certify)


# ---------------------------------------------------------------- scenarios


def _scenario(spec: ScenarioSpec) -> Instance:
    def build() -> Call:
        scenario = build_scenario(spec)
        return Call(scenario.architecture, scenario.components, {})

    def certify() -> dict:
        truth = ground_truth(build_scenario(spec))
        truth.pop("scenario")
        return truth

    return Instance(spec.name, spec_fingerprint(spec), build, certify)


def _dense_spec() -> ScenarioSpec:
    """A 1500-period counter driver against a two-round latency server."""
    client = counter_client(1500, ping="ping0", pong="pong0", prefix="c0")
    server = rehost_payload(latency_server([2, 3], ping="ping0", pong="pong0", name="c0srv"))
    slot = SlotSpec(
        name="slot0",
        label="c0",
        client=automaton_to_dict(client),
        hidden=server["automaton"],
        reference=server["automaton"],
        property="AG (c0.waiting -> AF[1,4] c0.idle)",
        expectation="proven",
    )
    return ScenarioSpec(name="dense-large", seed=0, joint=False, slots=(slot,), expectation="proven")


def pool_seeds(seed: int = POOL_SEED) -> list[int]:
    """Scenario-factory seeds of the scenario-mix pool, in pool order."""
    rng = random.Random(seed)
    small = rng.sample([s for s in range(1, 10_000) if s % LARGE_EVERY], POOL_SIZE - POOL_LARGE)
    large = rng.sample(range(LARGE_EVERY, 10_000, LARGE_EVERY), POOL_LARGE)
    return sorted(small + large)


def instances(workload: str) -> list[Instance]:
    """One pass of ``workload``, in pinned pool order."""
    if workload == "convoy-long":
        return [_convoy("convoy-long", 96, None)]
    if workload == "convoy-multi":
        return [_convoy_multi()]
    if workload == "scenario-mix":
        return [_scenario(generate_scenario(seed).spec) for seed in pool_seeds()]
    if workload == "dense-large":
        return [_scenario(_dense_spec())]
    if workload == "convoy-remote":
        return [_convoy("convoy-remote", 32, SynthesisSettings(remote=True))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def run(call: Call):
    """The measured operation: one ``integrate()`` call, chaos to verdicts."""
    return integrate(
        call.architecture, call.components, labelers=call.labelers, settings=call.settings
    )


def verdicts(report) -> dict[str, str]:
    """Verdict names per placement (``"joint"`` for multi-legacy runs)."""
    if not report.architecture.ok:
        return {"architecture": "failed"}
    found = {name: VERDICT_NAMES[result.verdict] for name, result in report.placements.items()}
    if report.joint is not None:
        found["joint"] = VERDICT_NAMES[report.joint.verdict]
    for name in report.skipped_placements:
        found[name] = "skipped"
    return found


def results(report) -> list:
    """Every synthesis result of a report (placements, then the joint run)."""
    found = [report.placements[name] for name in sorted(report.placements)]
    if report.joint is not None:
        found.append(report.joint)
    return found


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    expected = {}
    for workload in WORKLOADS:
        pinned = {}
        for instance in instances(workload):
            pinned[instance.name] = {
                "fingerprint": instance.fingerprint,
                "verdicts": instance.certify(),
            }
        expected[workload] = pinned
    for name in ("convoy-long", "convoy-multi", "convoy-remote"):
        (entry,) = expected[name].values()
        if set(entry["verdicts"].values()) != {"proven"}:
            raise SystemExit(f"{name}: the paper's convoy must be PROVEN, got {entry['verdicts']}")
    document = {"pool_seed": POOL_SEED, "workloads": expected}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
