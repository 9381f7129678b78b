"""Equivalence of the incremental verification engine with from-scratch.

The engine of :mod:`repro.automata.incremental` must be *invisible*:
for any sequence of learning steps, the incrementally maintained
chaotic closure, product, and warm-started checker have to be equal —
as automata, verdicts, and satisfaction sets — to rebuilding everything
from scratch each iteration.  Hypothesis drives random deterministic
servers through random observation/learning sequences and checks
exactly that.  :class:`ScratchVerifier` is the naive reference: the
end-to-end tests install it in place of the engine and assert that the
loop produces the same results, record by record, on the RailCab
workloads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, fields, replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import railcab
from repro.errors import LearningError
from repro.automata import (
    Automaton,
    IncompleteAutomaton,
    Interaction,
    InteractionUniverse,
    Run,
    Transition,
    chaotic_closure,
    compose,
    compose_all,
)
from repro.automata.incremental import (
    ClosureCache,
    IncrementalProduct,
    IncrementalVerifier,
    StepStats,
    VerificationStep,
)
from repro.logic import DEADLOCK_FREE, ModelChecker, parse
from repro.synthesis import IntegrationSynthesizer, Verdict, driver, learn
from repro.synthesis.multi import MultiLegacySynthesizer

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# --------------------------------------------------------------------- strategies

UNIVERSE = InteractionUniverse.singletons({"ping"}, {"pong"}, allow_simultaneous=True)
TICK_UNIVERSE = InteractionUniverse.singletons({"tick"}, {"tock"}, allow_simultaneous=True)


def _labeler(state) -> frozenset[str]:
    return frozenset({"p"}) if str(state) in ("q0", "q2") else frozenset({"q"})


@st.composite
def deterministic_servers(draw, *, inp: str = "ping", out: str = "pong", max_states: int = 4):
    """A strongly deterministic hidden machine (cf. test_properties)."""
    n_states = draw(st.integers(min_value=1, max_value=max_states))
    transitions: list[Transition] = []
    for state in range(n_states):
        for inputs in (frozenset(), frozenset({inp})):
            if not draw(st.booleans()):
                continue
            outputs = draw(st.sampled_from([frozenset(), frozenset({out})]))
            target = draw(st.integers(min_value=0, max_value=n_states - 1))
            transitions.append(
                Transition(f"q{state}", Interaction(inputs, outputs), f"q{target}")
            )
    return Automaton(
        states=[f"q{i}" for i in range(n_states)],
        inputs={inp},
        outputs={out},
        transitions=transitions,
        initial=["q0"],
        name="hidden-server",
    )


def _empty_model(server: Automaton) -> IncompleteAutomaton:
    return IncompleteAutomaton(
        states=["q0"],
        inputs=server.inputs,
        outputs=server.outputs,
        transitions=(),
        refusals=(),
        initial=["q0"],
        labels={"q0": _labeler("q0")},
        name="M_l^0",
    )


@st.composite
def model_evolutions(
    draw,
    *,
    universe: InteractionUniverse = UNIVERSE,
    inp: str = "ping",
    out: str = "pong",
    min_steps: int = 1,
    max_steps: int = 5,
):
    """Successive models of one learning process, oldest first.

    Every observed run is walked on a hidden deterministic server, so
    the observations are mutually consistent (as §4.3 presupposes) and
    the evolution mirrors what the synthesis loop feeds the engine:
    regular runs grow ``T``, blocked runs grow ``T̄``.
    """
    server = draw(deterministic_servers(inp=inp, out=out))
    model = _empty_model(server)
    models = [model]
    for _ in range(draw(st.integers(min_value=min_steps, max_value=max_steps))):
        state = "q0"
        steps: list[tuple[Interaction, object]] = []
        blocked = None
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            inputs = draw(st.sampled_from([frozenset(), frozenset({inp})]))
            matching = server.transitions_on(state, inputs)
            if not matching:
                expected = draw(st.sampled_from([frozenset(), frozenset({out})]))
                blocked = Interaction(inputs, expected)
                break
            transition = matching[0]
            steps.append((transition.interaction, transition.target))
            state = transition.target
        run = Run("q0", tuple(steps), blocked=blocked)
        try:
            model = learn(model, run, labeler=_labeler, universe=universe)
        except LearningError:
            # A re-drawn observation may add nothing new; the loop
            # itself never replays such runs, so skip it here too.
            continue
        models.append(model)
    return models


def _client() -> Automaton:
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
        labels={"idle": {"client.idle"}, "waiting": {"client.waiting"}},
        name="client",
    )


FORMULAS = (
    parse("AG (p or chaos)"),
    parse("AF (q or chaos)"),
    parse("EF deadlock"),
    parse("EG (p or chaos)"),
    parse("AG ((p or chaos) -> AF (q or chaos))"),
    DEADLOCK_FREE,
)


# ------------------------------------------------------------ reference oracle


@dataclass(kw_only=True)
class ScratchVerifier:
    """The naive reference for :class:`IncrementalVerifier`.

    Every :meth:`step` rebuilds each closure with :func:`chaotic_closure`,
    the product with :func:`compose` / :func:`compose_all`, and checks it
    with a cold :class:`ModelChecker` — the literal per-iteration
    re-verification of §4.  It takes the engine's constructor keywords
    and keeps no cache, so its step counters stay zero.  Install it with
    :func:`on_scratch`.
    """

    context: Automaton | None
    universes: list
    semantics: str = "strict"
    tracer: object = None

    def step(self, models, *, closure_names=None, name=None) -> VerificationStep:
        names = closure_names if closure_names is not None else [None] * len(models)
        closures = tuple(
            chaotic_closure(
                model,
                universe,
                deterministic_implementation=True,
                name=closure_name,
            )
            for model, universe, closure_name in zip(models, self.universes, names)
        )
        parts = [self.context, *closures] if self.context is not None else list(closures)
        if len(parts) == 1:
            composed = parts[0]
        elif len(parts) == 2:
            composed = compose(*parts, semantics=self.semantics, name=name)
        else:
            composed = compose_all(parts, semantics=self.semantics, name=name)
        return VerificationStep(closures, composed, ModelChecker(composed), StepStats())


def on_scratch(monkeypatch, run):
    """``run()`` with :class:`ScratchVerifier` in place of the engine."""
    with monkeypatch.context() as patch:
        patch.setattr(driver, "IncrementalVerifier", ScratchVerifier)
        return run()


#: Record fields that count the engine's work; the reference has no cache.
WORK_COUNTERS = dict.fromkeys(
    [field.name for field in fields(StepStats)] + ["checker_fixpoint_work"], 0
)


def assert_same_records(engine_result, reference_result) -> None:
    """Equal iteration records, field by field, apart from the work counters."""
    # The reference really ran: it reuses nothing.
    assert not any(record.closure_groups_reused for record in reference_result.iterations)
    engine = [replace(record, **WORK_COUNTERS) for record in engine_result.iterations]
    reference = [replace(record, **WORK_COUNTERS) for record in reference_result.iterations]
    assert engine == reference


# ------------------------------------------------------------ closure and product


@SETTINGS
@given(model_evolutions())
def test_closure_cache_equals_from_scratch_closure(models):
    """Delta-maintained ``chaos(M)`` is the Definition 9 closure, always."""
    cache = ClosureCache(UNIVERSE)
    for model in models:
        update = cache.update(model)
        assert update.closure == chaotic_closure(
            model, UNIVERSE, deterministic_implementation=True
        )
        assert update.reused_groups + update.rebuilt_groups == len(model.states)


@SETTINGS
@given(model_evolutions())
def test_incremental_product_equals_compose(models):
    """Dirty-region product re-exploration equals a full binary compose."""
    client = _client()
    cache = ClosureCache(UNIVERSE)
    product = IncrementalProduct(semantics="strict")
    for model in models:
        update = cache.update(model)
        step = product.update(
            [client, update.closure], [frozenset(), update.dirty_states]
        )
        assert step.automaton == compose(client, update.closure, semantics="strict")


@SETTINGS
@given(model_evolutions(), model_evolutions(universe=TICK_UNIVERSE, inp="tick", out="tock"))
def test_incremental_nary_product_equals_compose_all(models_a, models_b):
    """The n-ary (multi-legacy) product path equals ``compose_all``."""
    cache_a = ClosureCache(UNIVERSE)
    cache_b = ClosureCache(TICK_UNIVERSE)
    product = IncrementalProduct(semantics="open")
    # Interleave the two evolutions the way the parallel loop does.
    length = max(len(models_a), len(models_b))
    for index in range(length):
        up_a = cache_a.update(models_a[min(index, len(models_a) - 1)])
        up_b = cache_b.update(models_b[min(index, len(models_b) - 1)])
        step = product.update(
            [up_a.closure, up_b.closure], [up_a.dirty_states, up_b.dirty_states]
        )
        assert step.automaton == compose_all(
            [up_a.closure, up_b.closure], semantics="open"
        )


@SETTINGS
@given(model_evolutions())
def test_warm_update_is_all_hits(models):
    """Re-running an unchanged model re-explores without a single miss."""
    client = _client()
    cache = ClosureCache(UNIVERSE)
    product = IncrementalProduct(semantics="strict")
    update = None
    for model in models:
        update = cache.update(model)
        product.update([client, update.closure], [frozenset(), update.dirty_states])
    warm = product.update([client, update.closure], [frozenset(), frozenset()])
    assert warm.misses == 0
    assert warm.hits == len(warm.automaton.states)
    reference = compose(client, update.closure, semantics="strict")
    assert warm.automaton == reference
    assert warm.automaton.ordered_transitions == reference.ordered_transitions


_FINGERPRINT_SCRIPT = """
import hashlib
from tests.test_incremental import UNIVERSE, _client
from repro.automata import IncompleteAutomaton
from repro.automata.incremental import ClosureCache, IncrementalProduct

client = _client()
model = IncompleteAutomaton(
    states=["q0"], inputs={"ping"}, outputs={"pong"}, transitions=(),
    refusals=(), initial=["q0"], labels={"q0": {"p"}}, name="M_l^0",
)
cache = ClosureCache(UNIVERSE)
product = IncrementalProduct(semantics="strict")
update = cache.update(model)
step = product.update([client, update.closure], [frozenset(), update.dirty_states])
digest = hashlib.sha256()
for t in step.automaton.ordered_transitions:
    digest.update(repr((repr(t.source), sorted(t.inputs), sorted(t.outputs), repr(t.target))).encode())
for s in sorted(step.automaton.states, key=repr):
    digest.update(repr(sorted(step.automaton.labels(s))).encode())
print(digest.hexdigest())
"""


def test_canonical_order_is_hash_seed_independent():
    """Three fresh interpreters, three hash seeds, one fingerprint."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    root = os.path.dirname(src)
    fingerprints = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src + os.pathsep + root)
        result = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            check=True,
        )
        fingerprints.add(result.stdout.strip())
    assert len(fingerprints) == 1, fingerprints


# ------------------------------------------------------------------ warm checker


@SETTINGS
@given(model_evolutions(min_steps=3))
def test_warm_checker_equals_cold_checker(models):
    """Warm-started verdicts and sat-sets equal cold ones, step by step."""
    client = _client()
    cache = ClosureCache(UNIVERSE)
    product = IncrementalProduct(semantics="strict")
    previous: ModelChecker | None = None
    for model in models:
        update = cache.update(model)
        step = product.update(
            [client, update.closure], [frozenset(), update.dirty_states]
        )
        warm = ModelChecker(step.automaton, warm_from=previous, dirty_states=step.dirty_states)
        cold = ModelChecker(step.automaton)
        for formula in FORMULAS:
            assert warm.sat(formula) == cold.sat(formula), formula
            assert warm.check(formula).holds == cold.check(formula).holds
        previous = warm


@SETTINGS
@given(model_evolutions(min_steps=3))
def test_verifier_step_equals_scratch_pipeline(models):
    """The bundled engine (closure+product+checker) equals the reference."""
    client = _client()
    engine = IncrementalVerifier(context=client, universes=[UNIVERSE])
    reference = ScratchVerifier(context=client, universes=[UNIVERSE])
    for model in models:
        step = engine.step([model])
        expected = reference.step([model])
        assert step.closures == expected.closures
        assert step.composed == expected.composed
        for formula in FORMULAS:
            assert step.checker.sat(formula) == expected.checker.sat(formula), formula


# -------------------------------------------------------------------- end to end


def _convoy(component) -> IntegrationSynthesizer:
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        component,
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
    )


def test_end_to_end_correct_shuttle_matches_full(monkeypatch):
    build = lambda: _convoy(railcab.correct_rear_shuttle(convoy_ticks=3))
    incr = build().run()
    full = on_scratch(monkeypatch, lambda: build().run())
    assert incr.verdict is full.verdict is Verdict.PROVEN
    assert_same_records(incr, full)
    assert incr.final_model == full.final_model
    assert incr.final_closure == full.final_closure
    # The warm path must actually have been warm.
    assert sum(r.closure_groups_reused for r in incr.iterations) > 0
    assert sum(r.product_hits for r in incr.iterations) > 0
    # AG-shaped formulas are solved globally on both paths, so warm
    # fixpoint work can at best tie on this workload — never exceed.
    assert sum(r.checker_fixpoint_work for r in incr.iterations) <= sum(
        r.checker_fixpoint_work for r in full.iterations
    )


def test_end_to_end_faulty_shuttle_matches_full(monkeypatch):
    build = lambda: _convoy(railcab.faulty_rear_shuttle())
    incr = build().run()
    full = on_scratch(monkeypatch, lambda: build().run())
    assert incr.verdict is full.verdict is Verdict.REAL_VIOLATION
    assert_same_records(incr, full)
    assert incr.final_model == full.final_model
    assert incr.violation_kind == full.violation_kind


def test_end_to_end_multi_legacy_matches_full(monkeypatch):
    def build() -> MultiLegacySynthesizer:
        return MultiLegacySynthesizer(
            None,
            [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=2)],
            railcab.PATTERN_CONSTRAINT,
            labelers={
                "frontShuttle": railcab.front_state_labeler,
                "rearShuttle": railcab.rear_state_labeler,
            },
        )

    incr = build().run()
    full = on_scratch(monkeypatch, lambda: build().run())
    assert incr.verdict is full.verdict is Verdict.PROVEN
    assert_same_records(incr, full)
    assert incr.final_models == full.final_models
