"""Workload generators for benchmarks and randomized soundness sweeps.

Three families:

* :func:`random_deterministic_component` — strongly deterministic
  machines over a given interface, seeded and reproducible; used by the
  randomized C1 (soundness) sweeps.
* :func:`mutate_component` — behavior-preserving-or-not mutations of an
  existing component (retarget, re-output, or delete a transition),
  modeling the "legacy component that fits more or less" the models
  (§1); determinism is preserved by construction.
* :func:`chain_server` / :func:`ping_client` — a protocol family whose
  *context-relevant* state count scales with a parameter, complementing
  the overbuilt shuttles (whose irrelevant part scales): this is the
  workload where the paper's approach legitimately has to learn more.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .automata.automaton import Automaton, Transition
from .automata.interaction import Interaction
from .errors import ModelError
from .legacy.component import LegacyComponent

__all__ = [
    "random_deterministic_component",
    "mutate_component",
    "ping_client",
    "chain_server",
    "counter_client",
    "latency_server",
]


def random_deterministic_component(
    seed: int,
    *,
    n_states: int = 4,
    inputs: Iterable[str] = ("ping",),
    outputs: Iterable[str] = ("pong",),
    reaction_probability: float = 0.8,
    name: str = "random",
) -> LegacyComponent:
    """A seeded, strongly deterministic component over the interface.

    For every state and every singleton-or-empty input set, the machine
    reacts with probability ``reaction_probability`` — producing a
    singleton-or-empty output set and moving to a random state — and
    refuses otherwise.  All states are made reachable by wiring state
    ``i`` to appear as some target of states ``< i`` where possible.
    """
    if n_states < 1:
        raise ModelError("n_states must be positive")
    rng = random.Random(seed)
    inputs = sorted(inputs)
    outputs = sorted(outputs)
    input_sets = [frozenset()] + [frozenset({i}) for i in inputs]
    output_sets = [frozenset()] + [frozenset({o}) for o in outputs]
    states = [f"q{i}" for i in range(n_states)]
    transitions: list[Transition] = []
    # A spanning chain keeps every state reachable.
    for index in range(n_states - 1):
        chosen_inputs = rng.choice(input_sets)
        chosen_outputs = rng.choice(output_sets)
        transitions.append(
            Transition(states[index], Interaction(chosen_inputs, chosen_outputs), states[index + 1])
        )
    used = {(t.source, t.interaction.inputs) for t in transitions}
    for state in states:
        for input_set in input_sets:
            if (state, input_set) in used:
                continue
            if rng.random() > reaction_probability:
                continue
            interaction = Interaction(input_set, rng.choice(output_sets))
            target = rng.choice(states)
            transitions.append(Transition(state, interaction, target))
            used.add((state, input_set))
    hidden = Automaton(
        states=states,
        inputs=inputs,
        outputs=outputs,
        transitions=transitions,
        initial=[states[0]],
        name=f"{name}#{seed}",
    )
    return LegacyComponent(hidden, name=name)


def mutate_component(
    component: LegacyComponent, seed: int, *, mutations: int = 1, name: str | None = None
) -> LegacyComponent:
    """A copy of the component with random behavioral mutations.

    Each mutation either retargets a transition, changes its outputs,
    or deletes it; strong determinism is preserved (the ``(state,
    inputs)`` key never gains a second reaction).  Useful for soundness
    sweeps: some mutants stay correct, others break the protocol, and
    the synthesis verdict must track the ground truth either way.
    """
    rng = random.Random(seed)
    hidden = component._hidden
    # ordered_transitions, not the transitions frozenset: victim selection
    # must not depend on PYTHONHASHSEED for mutants to be reproducible.
    transitions = list(hidden.ordered_transitions)
    if not transitions:
        raise ModelError("cannot mutate a component without transitions")
    states = sorted(hidden.states, key=repr)
    output_sets = [frozenset()] + [frozenset({o}) for o in sorted(hidden.outputs)]
    for _ in range(mutations):
        index = rng.randrange(len(transitions))
        victim = transitions[index]
        operation = rng.choice(["retarget", "reoutput", "delete"])
        if operation == "delete" and len(transitions) > 1:
            transitions.pop(index)
        elif operation == "retarget":
            transitions[index] = Transition(
                victim.source, victim.interaction, rng.choice(states)
            )
        else:
            transitions[index] = Transition(
                victim.source,
                Interaction(victim.interaction.inputs, rng.choice(output_sets)),
                victim.target,
            )
    mutated = Automaton(
        states=hidden.states,
        inputs=hidden.inputs,
        outputs=hidden.outputs,
        transitions=transitions,
        initial=hidden.initial,
        labels=hidden.label_map,
        name=f"{hidden.name}~{seed}",
    )
    return LegacyComponent(mutated, name=name if name is not None else component.name)


def ping_client(*, name: str = "client") -> Automaton:
    """The canonical context: may idle, sends ping, awaits pong."""
    return Automaton(
        inputs={"pong"},
        outputs={"ping"},
        transitions=[
            ("idle", (), (), "idle"),
            ("idle", (), ("ping",), "waiting"),
            ("waiting", ("pong",), (), "idle"),
            ("waiting", (), (), "waiting"),
        ],
        initial=["idle"],
        labels={"idle": {f"{name}.idle"}, "waiting": {f"{name}.waiting"}},
        name=name,
    )


def counter_client(
    period: int,
    *,
    ping: str = "ping",
    pong: str = "pong",
    prefix: str = "client",
    name: str | None = None,
) -> Automaton:
    """A strictly periodic client: ping every ``period`` steps, await pong.

    Unlike :func:`ping_client` (which may idle nondeterministically) the
    counter client is deterministic, so its state count — ``period + 1``
    — scales the composed product directly: with ``period`` in the high
    hundreds a scenario's very first verify iteration composes a product
    of more than 2048 states.
    States are labeled ``{prefix}.idle`` / ``{prefix}.waiting`` so
    bounded-response properties read the same as for the plain client.
    """
    if period < 1:
        raise ModelError("period must be positive")
    width = len(str(period - 1))
    idle = [f"idle{index:0{width}d}" for index in range(period)]
    transitions = []
    for index in range(period - 1):
        transitions.append((idle[index], (), (), idle[index + 1]))
    transitions.append((idle[-1], (), (ping,), "waiting"))
    transitions.append(("waiting", (pong,), (), idle[0]))
    transitions.append(("waiting", (), (), "waiting"))
    labels = {state: {f"{prefix}.idle"} for state in idle}
    labels["waiting"] = {f"{prefix}.waiting"}
    return Automaton(
        inputs={pong},
        outputs={ping},
        transitions=transitions,
        initial=[idle[0]],
        labels=labels,
        name=name if name is not None else f"{prefix}(counter-{period})",
    )


def latency_server(
    latencies: "Iterable[int]",
    *,
    ping: str = "ping",
    pong: str = "pong",
    name: str = "server",
) -> LegacyComponent:
    """A server answering round ``i``'s ping after ``latencies[i]`` periods.

    Generalizes :func:`chain_server` (all latencies 1): the server cycles
    through the rounds; in round ``i`` it consumes a ping, waits
    ``latencies[i] - 1`` further periods, then emits the pong.  Bounded
    response ``AG (waiting -> AF[1,B] idle)`` against a ping client holds
    iff every latency is ``<= B`` — which is how the scenario factory
    plants property violations with a known answer: one slow round
    beyond the bound, reachable because the rounds cycle.
    """
    rounds = [int(latency) for latency in latencies]
    if not rounds:
        raise ModelError("need at least one round")
    if any(latency < 1 for latency in rounds):
        raise ModelError("latencies must be positive")
    transitions = []
    for index, latency in enumerate(rounds):
        ready = f"ready{index}"
        following = f"ready{(index + 1) % len(rounds)}"
        transitions.append((ready, (), (), ready))
        # Consume the ping now; emit the pong ``latency`` periods later
        # (latency 1 is exactly chain_server's ready -> busy -> ready).
        transitions.append((ready, (ping,), (), f"wait{index}.1"))
        for tick in range(1, latency):
            transitions.append((f"wait{index}.{tick}", (), (), f"wait{index}.{tick + 1}"))
        transitions.append((f"wait{index}.{latency}", (), (pong,), following))
    hidden = Automaton(
        inputs={ping},
        outputs={pong},
        transitions=transitions,
        initial=["ready0"],
        name=f"{name}(latency-{'-'.join(map(str, rounds))})",
    )
    return LegacyComponent(hidden, name=name)


def chain_server(length: int, *, name: str = "server") -> LegacyComponent:
    """A server whose *context-relevant* state count scales with length.

    The server cycles through ``length`` rounds; in each round it
    consumes a ping and answers with a pong one period later.  Every
    state is exercised by the ping client, so — unlike the overbuilt
    shuttles — the synthesis genuinely has to learn ``2·length`` states.
    """
    if length < 1:
        raise ModelError("length must be positive")
    transitions = []
    for index in range(length):
        ready, busy = f"ready{index}", f"busy{index}"
        transitions.append((ready, ("ping",), (), busy))
        transitions.append((ready, (), (), ready))
        transitions.append((busy, (), ("pong",), f"ready{(index + 1) % length}"))
    hidden = Automaton(
        inputs={"ping"},
        outputs={"pong"},
        transitions=transitions,
        initial=["ready0"],
        name=f"{name}(chain-{length})",
    )
    return LegacyComponent(hidden, name=name)
