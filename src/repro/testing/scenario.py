"""Seeded scenario factory for the randomized conformance campaign.

The paper's soundness claims (Lemmas 6-7: verdicts are never false
violations, learned models refine monotonically) were exercised on two
hand-built workloads.  This module generates *arbitrarily many*: a
:class:`ScenarioSpec` describes a small architecture with one to three
legacy slots, each slot pairing a modeled driver (the context ``M_a^c``)
with a hidden server component and a per-slot ACTL property — clocked
bounded-response, unclocked until, or pure safety with deadlock as the
violation channel.

Every scenario carries a **known answer**: the factory either plants a
violation (a slow round beyond the property bound, a refused round that
deadlocks a deterministic driver, a seeded mutant) or guarantees its
absence (the hidden component *is* the conformant reference protocol,
optionally padded with unreachable chaff states), and then certifies
the expectation by full-composition model checking —
``context ∥ M_r ⊨ φ ∧ ¬δ`` — at construction time.  The campaign
(:mod:`tools.campaign <tools.campaign>`) re-derives that ground truth
independently and asserts that every configuration of the synthesis
loop (fault-injected or not) and the :mod:`repro.baselines` learners
agree with it.

Scenario sizes deliberately span two orders of magnitude: a slice of
scenarios uses a :func:`repro.workloads.counter_client` driver large
enough that the very first verify iteration composes a product of more
than 2048 states.

Specs serialize to plain JSON (states are repr-stable strings, every
list canonically sorted), which is what makes shrunk regression
fixtures under ``tests/fixtures/scenarios/`` both human-readable and
hash-seed independent; see :mod:`repro.testing.shrink`.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace

from ..automata.automaton import Automaton
from ..automata.composition import compose, compose_all
from ..automata.transform import pad_states
from ..errors import ModelError, SynthesisError
from ..legacy.component import LegacyComponent
from ..legacy.interface import interface_of
from ..logic.checker import ModelChecker
from ..logic.formulas import DEADLOCK_FREE, Formula, conjunction
from ..logic.parser import parse
from ..muml.architecture import Architecture
from ..muml.component import Component, Port
from ..muml.pattern import CoordinationPattern, Role
from ..persistence import automaton_from_dict, automaton_to_dict
from ..synthesis.settings import SynthesisSettings
from ..workloads import counter_client, latency_server, mutate_component
from .faults import FaultProfile

__all__ = [
    "SlotSpec",
    "ScenarioSpec",
    "Scenario",
    "CampaignConfig",
    "ConfigOutcome",
    "ScenarioEvaluation",
    "build_scenario",
    "generate_scenario",
    "ground_truth",
    "run_scenario",
    "default_matrix",
    "evaluate_scenario",
    "baseline_verdicts",
    "spec_fingerprint",
    "LARGE_EVERY",
]

#: Every ``LARGE_EVERY``-th seed generates a large scenario (driver
#: periods in the high hundreds, products beyond 2048 states), so a
#: 50-scenario smoke slice still exercises a large product at least once.
LARGE_EVERY = 25

#: Verdict names used throughout specs, truths, and campaign reports.
PROVEN, VIOLATION = "proven", "violation"


def _verdict_name(verdict) -> str:
    # Lazy: repro.synthesis.iterate imports repro.testing at load time,
    # so naming its Verdict enum here must not close the import cycle.
    from ..synthesis.iterate import Verdict

    return {
        Verdict.PROVEN: PROVEN,
        Verdict.REAL_VIOLATION: VIOLATION,
        Verdict.BUDGET_EXCEEDED: "budget-exceeded",
    }[verdict]


# ----------------------------------------------------------------- specs


@dataclass(frozen=True)
class SlotSpec:
    """One legacy slot: driver, hidden component, reference, property."""

    name: str
    label: str
    client: dict
    hidden: dict
    reference: dict
    property: str
    expectation: str
    family: str = "response"
    plant: str = "conform"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "label": self.label,
            "client": self.client,
            "hidden": self.hidden,
            "reference": self.reference,
            "property": self.property,
            "expectation": self.expectation,
            "family": self.family,
            "plant": self.plant,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SlotSpec":
        return cls(**{key: payload[key] for key in (
            "name", "label", "client", "hidden", "reference", "property",
            "expectation", "family", "plant",
        )})


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully serializable scenario description with its known answer."""

    name: str
    seed: int
    joint: bool
    slots: tuple[SlotSpec, ...]
    expectation: str

    def to_dict(self) -> dict:
        return {
            "format": 1,
            "name": self.name,
            "seed": self.seed,
            "joint": self.joint,
            "slots": [slot.to_dict() for slot in self.slots],
            "expectation": self.expectation,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        return cls(
            name=payload["name"],
            seed=payload["seed"],
            joint=payload["joint"],
            slots=tuple(SlotSpec.from_dict(slot) for slot in payload["slots"]),
            expectation=payload["expectation"],
        )


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """A short stable digest of the spec's canonical JSON form."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class Scenario:
    """A built scenario: the spec plus the live objects the loop needs."""

    spec: ScenarioSpec
    architecture: Architecture = field(compare=False)
    components: dict[str, LegacyComponent] = field(compare=False)
    contexts: dict[str, Automaton] = field(compare=False)
    hiddens: dict[str, Automaton] = field(compare=False)
    properties: dict[str, Formula] = field(compare=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def verdict_keys(self) -> tuple[str, ...]:
        """The keys a run of this scenario produces verdicts under."""
        if self.spec.joint and len(self.spec.slots) > 1:
            return ("joint",)
        return tuple(slot.name for slot in self.spec.slots)


# ----------------------------------------------------------- construction


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Rebuild the architecture, components, and properties from a spec.

    Deterministic and pure: the same spec (e.g. loaded from a fixture,
    or produced by the shrinker) always yields the same scenario, on
    any ``PYTHONHASHSEED``.
    """
    architecture = Architecture(spec.name)
    contexts: dict[str, Automaton] = {}
    hiddens: dict[str, Automaton] = {}
    components: dict[str, LegacyComponent] = {}
    properties: dict[str, Formula] = {}

    clients: list[Automaton] = []
    references: list[Automaton] = []
    for slot in spec.slots:
        client = automaton_from_dict(slot.client)
        hidden = automaton_from_dict(slot.hidden)
        reference = automaton_from_dict(slot.reference)
        contexts[slot.name] = client
        hiddens[slot.name] = hidden
        components[slot.name] = LegacyComponent(hidden, name=slot.name)
        properties[slot.name] = parse(slot.property)
        clients.append(client)
        references.append(reference)

    if spec.joint and len(spec.slots) > 1:
        driver = compose_all(clients, name=f"{spec.name}-drivers")
        roles = [Role("driver", driver)]
        bindings: dict[str, tuple[str, str | None]] = {"driver": ("driver", "main")}
        for slot, reference in zip(spec.slots, references):
            roles.append(Role(f"{slot.name}Device", reference))
            architecture.add_legacy(slot.name)
            bindings[f"{slot.name}Device"] = (slot.name, None)
        pattern = CoordinationPattern(
            f"{spec.name}-pattern",
            roles,
            constraint=conjunction([properties[slot.name] for slot in spec.slots]),
        )
        architecture.add_component(Component("driver", [Port("main", roles[0], driver)]))
        architecture.instantiate(pattern, bindings, name=f"{spec.name}#joint")
    else:
        for slot, client, reference in zip(spec.slots, clients, references):
            driver_role = Role(f"{slot.name}Driver", client)
            device_role = Role(f"{slot.name}Device", reference)
            pattern = CoordinationPattern(
                f"{slot.name}-pattern",
                [driver_role, device_role],
                constraint=properties[slot.name],
            )
            driver_name = f"{slot.name}Driver"
            architecture.add_component(
                Component(driver_name, [Port("main", driver_role, client)])
            )
            architecture.add_legacy(slot.name)
            architecture.instantiate(
                pattern,
                {
                    f"{slot.name}Driver": (driver_name, "main"),
                    f"{slot.name}Device": (slot.name, None),
                },
                name=f"{slot.name}#0",
            )

    return Scenario(
        spec=spec,
        architecture=architecture,
        components=components,
        contexts=contexts,
        hiddens=hiddens,
        properties=properties,
    )


def _slot_truth(client: Automaton, hidden: Automaton, property: Formula) -> str:
    """White-box ground truth for one slot: ``client ∥ M_r ⊨ φ ∧ ¬δ``."""
    checker = ModelChecker(compose(client, hidden))
    holds = checker.holds(property) and checker.holds(DEADLOCK_FREE)
    return PROVEN if holds else VIOLATION


def ground_truth(scenario: Scenario) -> dict[str, str]:
    """The oracle: full-composition model checking, per verdict key.

    For separate slots this checks each ``client_i ∥ M_r^i`` pair; for a
    joint scenario it composes *all* drivers and *all* hidden components
    into one product and checks the conjunction — exactly the system the
    multi-legacy synthesis reasons about.  The ``"scenario"`` key
    aggregates: proven iff every key is proven.
    """
    spec = scenario.spec
    truth: dict[str, str] = {}
    if spec.joint and len(spec.slots) > 1:
        parts: list[Automaton] = []
        for slot in spec.slots:
            parts.append(scenario.contexts[slot.name])
            parts.append(scenario.hiddens[slot.name])
        product = compose_all(parts, name=f"{spec.name}-truth")
        checker = ModelChecker(product)
        conj = conjunction([scenario.properties[slot.name] for slot in spec.slots])
        holds = checker.holds(conj) and checker.holds(DEADLOCK_FREE)
        truth["joint"] = PROVEN if holds else VIOLATION
    else:
        for slot in spec.slots:
            truth[slot.name] = _slot_truth(
                scenario.contexts[slot.name],
                scenario.hiddens[slot.name],
                scenario.properties[slot.name],
            )
    truth["scenario"] = (
        PROVEN if all(value == PROVEN for value in truth.values()) else VIOLATION
    )
    return truth


# ------------------------------------------------------------- generation


def _lazy_client(ping: str, pong: str, prefix: str) -> Automaton:
    """A may-idle driver (the canonical ping client, reparameterized)."""
    return Automaton(
        inputs={pong},
        outputs={ping},
        transitions=[
            ("idle", (), (), "idle"),
            ("idle", (), (ping,), "waiting"),
            ("waiting", (pong,), (), "idle"),
            ("waiting", (), (), "waiting"),
        ],
        initial=["idle"],
        labels={"idle": {f"{prefix}.idle"}, "waiting": {f"{prefix}.waiting"}},
        name=f"{prefix}(lazy)",
    )


def _slot_property(family: str, label: str, bound: int) -> str:
    if family == "response":
        return f"AG ({label}.waiting -> AF[1,{bound}] {label}.idle)"
    if family == "until":
        return f"AG ({label}.waiting -> A[{label}.waiting U {label}.idle])"
    if family == "safety":
        return f"A[] ({label}.idle or {label}.waiting)"
    raise ModelError(f"unknown property family {family!r}")


def _drop_round_ping(hidden: Automaton, round_index: int) -> Automaton:
    """The refusal plant: delete round ``round_index``'s ping transition."""
    source = f"ready{round_index}"
    kept = [
        transition
        for transition in hidden.transitions
        if not (transition.source == source and transition.interaction.inputs)
    ]
    if len(kept) == len(hidden.transitions):
        raise ModelError(f"no ping transition to drop at {source!r}")
    return Automaton(
        states=hidden.states,
        inputs=hidden.inputs,
        outputs=hidden.outputs,
        transitions=kept,
        initial=hidden.initial,
        labels=hidden.label_map,
        name=f"{hidden.name}-refuse{round_index}",
    )


def generate_scenario(seed: int, *, profile: str = "default") -> Scenario:
    """Generate one seeded scenario with a certified known answer.

    ``profile`` picks the size envelope: ``"default"`` mixes tiny to
    medium scenarios and promotes every :data:`LARGE_EVERY`-th seed to a
    large one; ``"tiny"`` caps everything small (used by
    property tests where wall-clock matters more than coverage).

    The returned scenario's ``spec.expectation`` (and each slot's) is
    *certified*: whatever the plant intended, the factory re-derives the
    truth by full-composition model checking before stamping it.
    """
    rng = random.Random(seed)
    large = profile == "default" and seed % LARGE_EVERY == 0 and seed > 0
    if large:
        slot_count, joint = 1, False
    else:
        slot_count = rng.choices([1, 2, 3], weights=[0.6, 0.3, 0.1])[0]
        joint = slot_count > 1 and rng.random() < 0.5

    slots: list[SlotSpec] = []
    for index in range(slot_count):
        label = f"c{index}"
        ping, pong = f"ping{index}", f"pong{index}"
        bound = rng.choice([2, 3, 4])
        family = rng.choices(["response", "until", "safety"], weights=[0.5, 0.25, 0.25])[0]

        if large:
            period: int | None = rng.randint(550, 760)
            round_count = 1
        elif joint or profile == "tiny":
            period = rng.choice([None, 1, 2])
            round_count = rng.randint(1, 2)
        else:
            period = rng.choice([None, None, 1, rng.randint(2, 6)])
            round_count = rng.randint(1, 4)
        latencies = [rng.randint(1, bound) for _ in range(round_count)]

        plants = ["conform", "overbuilt", "mutant"]
        if family == "response":
            plants.append("slow-round")
        if period is not None:  # a deterministic driver makes refusals deadlock
            plants.append("refusal")
        plant = rng.choice(["conform"] + plants) if large else rng.choice(plants)

        if period is None:
            client = _lazy_client(ping, pong, label)
        else:
            client = counter_client(period, ping=ping, pong=pong, prefix=label)

        reference = latency_server(latencies, ping=ping, pong=pong, name=f"{label}srv")
        hidden = reference._hidden
        if plant == "overbuilt":
            # Pads raise the interface's assumed state bound, and joint
            # scenarios pay that bound once per slot in their conformance
            # suites — keep the chaff small there so campaigns stay fast.
            pad_count = rng.randint(2, 6) if joint else rng.randint(3, 24)
            hidden = pad_states(hidden, pad_count, seed=rng.randrange(2**30))
        elif plant == "slow-round":
            slow = list(latencies)
            slow[rng.randrange(len(slow))] = bound + rng.randint(1, 3)
            hidden = latency_server(slow, ping=ping, pong=pong, name=f"{label}srv")._hidden
        elif plant == "refusal":
            hidden = _drop_round_ping(hidden, rng.randrange(round_count))
        elif plant == "mutant":
            mutant = mutate_component(
                LegacyComponent(hidden, name=f"{label}srv"),
                rng.randrange(2**30),
                mutations=rng.randint(1, 3),
            )
            hidden = mutant._hidden

        property_text = _slot_property(family, label, bound)
        expectation = _slot_truth(client, hidden, parse(property_text))
        slots.append(
            SlotSpec(
                name=f"slot{index}",
                label=label,
                client=automaton_to_dict(client),
                hidden=automaton_to_dict(hidden),
                reference=automaton_to_dict(reference._hidden),
                property=property_text,
                expectation=expectation,
                family=family,
                plant=plant,
            )
        )

    overall = (
        PROVEN if all(slot.expectation == PROVEN for slot in slots) else VIOLATION
    )
    spec = ScenarioSpec(
        name=f"scenario-{seed}",
        seed=seed,
        joint=joint,
        slots=tuple(slots),
        expectation=overall,
    )
    return build_scenario(spec)


# ---------------------------------------------------------------- running


def run_scenario(
    scenario: Scenario, settings: SynthesisSettings | None = None
) -> dict[str, str]:
    """One pass of ``integrate()`` over the scenario, as verdict names.

    Returns one entry per :attr:`Scenario.verdict_keys` plus the
    aggregated ``"scenario"`` key.  The modeled part is correct by
    construction, so an architecture-verification failure is reported
    as its own (always-disagreeing) pseudo-verdict rather than raised.
    """
    from ..integration import integrate

    report = integrate(scenario.architecture, scenario.components, settings=settings)
    verdicts: dict[str, str] = {}
    if not report.architecture.ok:
        for key in scenario.verdict_keys:
            verdicts[key] = "architecture-failed"
        verdicts["scenario"] = "architecture-failed"
        return verdicts
    if report.joint is not None:
        verdicts["joint"] = _verdict_name(report.joint.verdict)
    for name, result in report.placements.items():
        verdicts[name] = _verdict_name(result.verdict)
    for name in report.skipped_placements:
        verdicts[name] = "skipped"
    parts = [value for key, value in verdicts.items() if key != "scenario"]
    if any(value == VIOLATION for value in parts):
        verdicts["scenario"] = VIOLATION
    elif all(value == PROVEN for value in parts):
        verdicts["scenario"] = PROVEN
    else:
        verdicts["scenario"] = "budget-exceeded"
    return verdicts


# ----------------------------------------------------------- config matrix


@dataclass(frozen=True)
class CampaignConfig:
    """One named cell of the campaign's configuration matrix."""

    name: str
    settings: SynthesisSettings


def default_matrix(seed: int = 0) -> tuple[CampaignConfig, ...]:
    """The per-scenario differential set: fault-free and mild chaos."""
    return (
        CampaignConfig("baseline", SynthesisSettings()),
        CampaignConfig(
            "chaos-mild",
            SynthesisSettings(fault_profile=FaultProfile.mild(seed % 1009 + 1)),
        ),
    )


# ------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class ConfigOutcome:
    """Verdicts of one config run, with wall-clock for the report."""

    config: str
    verdicts: dict[str, str]
    seconds: float


@dataclass(frozen=True)
class ScenarioEvaluation:
    """The differential result of one scenario across the matrix.

    ``degraded`` lists fault-injected runs that soundly gave up
    (``budget-exceeded``) instead of a definite verdict — explained by
    the sound-degradation contract, so not disagreements; a *wrong
    definite* verdict under faults still is one.
    """

    spec: ScenarioSpec
    truth: dict[str, str]
    outcomes: tuple[ConfigOutcome, ...]
    baselines: dict[str, dict[str, str]]
    disagreements: tuple[str, ...]
    degraded: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.disagreements


def baseline_verdicts(scenario: Scenario) -> dict[str, dict[str, str]]:
    """Cross-check via the §6 baselines: L* identification and BBC.

    Per separate slot: (a) learn the hidden machine exactly with L*
    under a perfect equivalence oracle, convert the hypothesis, compose
    it with the driver, and model-check ``φ ∧ ¬δ`` — an independent
    learner must reproduce the ground truth; (b) run black-box checking
    of ``φ`` and compare with the property-only truth (BBC does not
    decide deadlock freedom).

    The BBC comparison is **one-sided**.  BBC confirms counterexamples
    by replaying the trace prefix on the component, which cannot
    certify violations that hinge on *blocking*: an intermediate
    hypothesis missing continuations deadlocks the composition, an
    AU/AF obligation fails on that truncated path, and the executable
    prefix "confirms" a violation the real system does not have.  (The
    campaign found this on its first sweep; the shrunk witness lives in
    ``tests/fixtures/scenarios/`` and the mechanism is the quiescence
    observation ioco-style testing adds — see ``docs/conformance.md``.)
    So a BBC false alarm is recorded (``bbc_false_alarm``) but only a
    *missed* violation counts as a disagreement.  Joint scenarios and
    large drivers are skipped (the baselines' cost profile is the
    reason the paper's scheme exists).
    """
    from ..baselines import (
        BBCVerdict,
        BlackBoxChecker,
        LStarLearner,
        MembershipOracle,
        PerfectEquivalenceOracle,
        hypothesis_to_automaton,
    )

    spec = scenario.spec
    results: dict[str, dict[str, str]] = {}
    if spec.joint and len(spec.slots) > 1:
        return results
    for slot in spec.slots:
        client = scenario.contexts[slot.name]
        hidden = scenario.hiddens[slot.name]
        if len(client.states) > 64 or len(hidden.states) > 48:
            continue
        component = LegacyComponent(hidden, name=slot.name)
        universe = interface_of(component).universe()
        property = scenario.properties[slot.name]

        learner = LStarLearner(
            MembershipOracle(component),
            universe,
            PerfectEquivalenceOracle(hidden, universe),
        )
        learned = hypothesis_to_automaton(learner.learn())
        checker = ModelChecker(compose(client, learned))
        lstar = (
            PROVEN
            if checker.holds(property) and checker.holds(DEADLOCK_FREE)
            else VIOLATION
        )

        property_truth = ModelChecker(compose(client, hidden)).holds(property)
        bbc_component = LegacyComponent(hidden, name=slot.name)
        bbc = BlackBoxChecker(
            client,
            bbc_component,
            property,
            universe=universe,
            equivalence=PerfectEquivalenceOracle(hidden, universe),
        ).run()
        bbc_name = {
            BBCVerdict.SATISFIED: PROVEN,
            BBCVerdict.VIOLATED: VIOLATION,
            BBCVerdict.BUDGET_EXCEEDED: "budget-exceeded",
        }[bbc.verdict]
        bbc_expected = PROVEN if property_truth else VIOLATION
        results[slot.name] = {
            "lstar": lstar,
            "bbc": bbc_name,
            "bbc_expected": bbc_expected,
            "bbc_false_alarm": (
                "yes" if bbc_name == VIOLATION and bbc_expected == PROVEN else "no"
            ),
        }
    return results


def evaluate_scenario(
    scenario: Scenario,
    configs: "tuple[CampaignConfig, ...] | None" = None,
    *,
    with_baselines: bool = False,
) -> ScenarioEvaluation:
    """Run a scenario through the matrix and diff everything.

    Disagreement kinds collected:

    * a config's verdict differs from the full-composition ground truth
      (this also catches cross-config divergence — all configs are held
      to the same truth); for fault-injected configs a sound
      ``budget-exceeded`` degrade is recorded under ``degraded``
      instead — silent faults (e.g. a crash-reset inside a long
      output-free trace) can legitimately starve the loop of progress —
      but a wrong *definite* verdict under faults is still a
      disagreement;
    * the certified ``expectation`` recorded in the spec differs from
      the freshly derived truth (a generator regression);
    * a baseline learner disagrees with its expected answer.
    """
    configs = configs if configs is not None else default_matrix(scenario.spec.seed)
    truth = ground_truth(scenario)
    disagreements: list[str] = []
    degraded: list[str] = []

    if truth["scenario"] != scenario.spec.expectation:
        disagreements.append(
            f"spec expectation {scenario.spec.expectation!r} != derived truth "
            f"{truth['scenario']!r}"
        )

    outcomes: list[ConfigOutcome] = []
    for config in configs:
        begin = time.perf_counter()
        try:
            verdicts = run_scenario(scenario, config.settings)
        except (SynthesisError, ModelError) as error:
            verdicts = {key: f"error: {error}" for key in (*scenario.verdict_keys, "scenario")}
        seconds = time.perf_counter() - begin
        outcomes.append(ConfigOutcome(config.name, verdicts, seconds))
        faulted = (
            config.settings.fault_profile is not None
            and config.settings.fault_profile.active
        )
        for key in (*scenario.verdict_keys, "scenario"):
            expected = truth.get(key, truth["scenario"])
            actual = verdicts.get(key, "missing")
            if actual == expected:
                continue
            if faulted and actual == "budget-exceeded":
                degraded.append(f"config {config.name}: {key} degraded soundly")
                continue
            disagreements.append(
                f"config {config.name}: {key} verdict {actual!r} != "
                f"ground truth {expected!r}"
            )

    baselines: dict[str, dict[str, str]] = {}
    if with_baselines:
        baselines = baseline_verdicts(scenario)
        for slot_name, row in baselines.items():
            if row["lstar"] != truth[slot_name]:
                disagreements.append(
                    f"baseline lstar: {slot_name} verdict {row['lstar']!r} != "
                    f"ground truth {truth[slot_name]!r}"
                )
            if row["bbc"] != row["bbc_expected"] and row["bbc_false_alarm"] != "yes":
                disagreements.append(
                    f"baseline bbc: {slot_name} verdict {row['bbc']!r} != "
                    f"property-only truth {row['bbc_expected']!r}"
                )

    return ScenarioEvaluation(
        spec=scenario.spec,
        truth=truth,
        outcomes=tuple(outcomes),
        baselines=baselines,
        disagreements=tuple(disagreements),
        degraded=tuple(degraded),
    )
