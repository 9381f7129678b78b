"""Fault-tolerant test execution: injection, retries, Lemma 6 soundness.

Covers :mod:`repro.testing.faults` and :mod:`repro.testing.robust` in
isolation, the executor/replay reset regression, and the synthesis
loop's degraded-verdict handling: a seeded fault matrix (every fault
kind × three seeds) must complete the RailCab convoy loop bit-identical
to the fault-free run, and no amount of chaos may ever manufacture a
``REAL_VIOLATION`` (Lemma 6: CONFIRMED needs a validated fault-free
run).
"""

import dataclasses

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro import railcab
from repro.automata import Automaton, Interaction, Run
from repro.errors import (
    FaultInjectionError,
    ModelError,
    ReplayError,
    SynthesisError,
)
from repro.legacy import LegacyComponent
from repro.obs import Tracer
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict
from repro.synthesis.multi import MultiLegacySynthesizer
from repro.testing import (
    FaultKind,
    FaultProfile,
    FaultyComponent,
    Quarantine,
    Recording,
    RetryPolicy,
    RobustExecutor,
    TestVerdict,
    execute_test,
    replay,
)
from repro.testing import test_case_from_trace as case_from_trace
from repro.testing.faults import FAULT_SEED_ENV
from repro.testing.robust import TEST_RETRIES_ENV, WorkerPool

PING = Interaction(["ping"], None)
PONG = Interaction(None, ["pong"])


def server_component() -> LegacyComponent:
    hidden = Automaton(
        inputs={"ping"},
        outputs={"pong"},
        transitions=[
            ("ready", ("ping",), (), "busy"),
            ("ready", (), (), "ready"),
            ("busy", (), ("pong",), "ready"),
        ],
        initial=["ready"],
        name="server",
    )
    return LegacyComponent(hidden, name="server")


def happy_case():
    return case_from_trace([PING, PONG, Interaction()], name="happy")


def outcome_fingerprint(outcome):
    """Everything observable about a supervised execution, hashably."""
    return (
        outcome.verdict,
        outcome.execution.recording.steps if outcome.execution else None,
        outcome.validated,
        outcome.attempts,
        outcome.retries,
        outcome.timeouts,
        outcome.faults,
        outcome.replays_performed,
        outcome.re_records,
        outcome.reason,
    )


# ------------------------------------------------------------ retry policy


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.validate is None
        assert policy.delay("t", 0) == 0.0  # no backoff_base, no sleeping

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": True},
            {"replay_attempts": 0},
            {"record_rounds": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_jitter": -1.0},
            {"step_timeout": 0.0},
            {"test_timeout": -2.0},
            {"backoff_base": float("nan")},
            {"backoff_factor": float("nan")},
            {"backoff_jitter": float("nan")},
            {"step_timeout": float("nan")},
            {"test_timeout": float("nan")},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(SynthesisError):
            RetryPolicy(**kwargs)

    def test_from_env_default(self, monkeypatch):
        monkeypatch.delenv(TEST_RETRIES_ENV, raising=False)
        assert RetryPolicy.from_env() == RetryPolicy()

    def test_from_env_sets_attempts(self, monkeypatch):
        monkeypatch.setenv(TEST_RETRIES_ENV, "4")
        assert RetryPolicy.from_env().max_attempts == 5  # retries + first try

    @pytest.mark.parametrize("raw", ["x", "-1", "1.5"])
    def test_from_env_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv(TEST_RETRIES_ENV, raw)
        with pytest.raises(SynthesisError):
            RetryPolicy.from_env()

    @given(
        key=st.text(max_size=20),
        attempt=st.integers(min_value=0, max_value=8),
        base=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @hyp_settings(max_examples=50, deadline=None)
    def test_delay_is_deterministic_and_bounded(self, key, attempt, base, jitter):
        policy = RetryPolicy(backoff_base=base, backoff_jitter=jitter)
        delay = policy.delay(key, attempt)
        assert delay == policy.delay(key, attempt)  # no RNG state anywhere
        if base <= 0:
            assert delay == 0.0
        else:
            raw = base * policy.backoff_factor**attempt
            assert raw <= delay <= raw * (1.0 + jitter)


# ------------------------------------------------------------ fault profile


class TestFaultProfile:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": "x"},
            {"seed": True},
            {"transient_error_rate": 1.5},
            {"replay_flip_rate": -0.1},
            {"hang_seconds": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ModelError):
            FaultProfile(**kwargs)

    def test_default_is_inactive(self):
        assert not FaultProfile(seed=7).active

    def test_presets_are_active(self):
        assert FaultProfile.mild(1).active
        assert FaultProfile.hostile(1).active

    def test_single_sets_exactly_one_rate(self):
        profile = FaultProfile.single(FaultKind.DROPPED_OUTPUT, 0.5, seed=3)
        assert profile.rate_of(FaultKind.DROPPED_OUTPUT) == 0.5
        assert profile.seed == 3
        for kind in FaultKind:
            if kind is not FaultKind.DROPPED_OUTPUT:
                assert profile.rate_of(kind) == 0.0

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
        assert FaultProfile.from_env() is None
        monkeypatch.setenv(FAULT_SEED_ENV, "9")
        assert FaultProfile.from_env() == FaultProfile.mild(9)
        monkeypatch.setenv(FAULT_SEED_ENV, "soon")
        with pytest.raises(ModelError):
            FaultProfile.from_env()


# --------------------------------------------------------- faulty component


class TestFaultyComponent:
    def test_wrap_is_idempotent(self):
        wrapped = FaultyComponent.wrap(server_component(), FaultProfile.mild(1))
        assert FaultyComponent.wrap(wrapped, FaultProfile.mild(2)) is wrapped

    def test_unarmed_wrapper_is_transparent(self):
        plain = server_component()
        wrapped = FaultyComponent(server_component(), FaultProfile.hostile(1))
        for inputs in (["ping"], [], ["ping"], []):
            ours, theirs = wrapped.step(inputs), plain.step(inputs)
            assert (ours.period, ours.outputs, ours.blocked) == (
                theirs.period,
                theirs.outputs,
                theirs.blocked,
            )
        assert wrapped.faults_injected == 0

    def test_counters_accrue_on_the_inner_component(self):
        wrapped = FaultyComponent(server_component(), FaultProfile.mild(1))
        wrapped.step(["ping"])
        wrapped.reset()
        assert wrapped.inner.steps_executed == 1
        assert wrapped.inner.resets == 1
        assert wrapped.steps_executed == 1  # delegated read

    def test_same_seed_same_fault_schedule(self):
        def chaos_trace(seed):
            wrapped = FaultyComponent(server_component(), FaultProfile.hostile(seed))
            observed = []
            with wrapped.inject_faults():
                for _ in range(20):
                    try:
                        observed.append(wrapped.step([]).outputs)
                    except FaultInjectionError as error:
                        observed.append(str(error))
            return observed, dict(wrapped.fault_counts)

        assert chaos_trace(5) == chaos_trace(5)
        assert chaos_trace(5) != chaos_trace(6)

    def test_crash_reset_loses_component_state(self):
        wrapped = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.CRASH_RESET, 1.0)
        )
        wrapped.step(["ping"])  # unarmed: ready -> busy
        with wrapped.inject_faults():
            with pytest.raises(FaultInjectionError):
                wrapped.step([])
        assert wrapped.fault_counts["crash_reset"] == 1
        # Restarted in the initial state: ping is accepted again.
        assert not wrapped.step(["ping"]).blocked

    def test_dropped_output_corrupts_the_observation(self):
        wrapped = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.DROPPED_OUTPUT, 1.0)
        )
        wrapped.step(["ping"])  # unarmed: the reaction is due next period
        with wrapped.inject_faults():
            outcome = wrapped.step([])
        assert outcome.outputs == frozenset()  # pong was produced, then lost
        assert wrapped.fault_counts["dropped_output"] == 1

    def test_spurious_output_adds_a_phantom_message(self):
        wrapped = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.SPURIOUS_OUTPUT, 1.0)
        )
        with wrapped.inject_faults():
            outcome = wrapped.step([])  # idle step really produces nothing
        assert outcome.outputs == frozenset({"pong"})
        assert wrapped.fault_counts["spurious_output"] == 1

    def test_replay_flip_breaks_a_good_recording(self):
        component = server_component()
        execution = execute_test(component, happy_case(), port="srv")
        assert execution.verdict is TestVerdict.CONFIRMED
        wrapped = FaultyComponent(
            component, FaultProfile.single(FaultKind.REPLAY_FLIP, 1.0)
        )
        with wrapped.inject_faults():
            with pytest.raises(ReplayError):
                replay(wrapped, execution.recording, port="srv")
        assert wrapped.fault_counts["replay_flip"] >= 1


# ---------------------------------------------- reset regression (executor)


class TestResetRegression:
    """A raising step must never leave the component mid-run."""

    def test_execute_test_resets_when_a_step_raises(self):
        wrapped = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0)
        )
        before = wrapped.inner.resets
        with wrapped.inject_faults():
            with pytest.raises(FaultInjectionError):
                execute_test(wrapped, happy_case(), port="srv")
        assert wrapped.inner.resets == before + 2  # on entry and in finally
        assert wrapped.period == 0
        # The very same component object is immediately reusable.
        assert execute_test(wrapped, happy_case(), port="srv").confirmed

    def test_replay_resets_on_divergence(self):
        component = server_component()
        execution = execute_test(component, happy_case(), port="srv")
        corrupted = Recording(
            component=execution.recording.component,
            steps=tuple(
                dataclasses.replace(step, observed_outputs=frozenset({"pong"}))
                for step in execution.recording.steps
            ),
        )
        before = component.resets
        with pytest.raises(ReplayError):
            replay(component, corrupted, port="srv")
        assert component.resets == before + 2
        assert component.period == 0
        assert execute_test(component, happy_case(), port="srv").confirmed


# ---------------------------------------------------------- robust executor


class TestRobustExecutor:
    def test_fault_free_path_matches_raw_executor(self):
        outcome = RobustExecutor().execute(server_component(), happy_case(), port="srv")
        raw = execute_test(server_component(), happy_case(), port="srv")
        assert outcome.verdict is TestVerdict.CONFIRMED
        assert outcome.execution.recording == raw.recording
        assert (outcome.attempts, outcome.retries, outcome.timeouts) == (1, 0, 0)
        assert not outcome.validated and outcome.replay is None  # fast path

    def test_validate_true_forces_a_validation_replay(self):
        executor = RobustExecutor(RetryPolicy(validate=True))
        outcome = executor.execute(server_component(), happy_case(), port="srv")
        assert outcome.validated
        assert outcome.replay is not None
        assert outcome.replays_performed == 1

    def test_transient_faults_are_retried_to_a_validated_verdict(self):
        baseline = execute_test(server_component(), happy_case(), port="srv")
        recovered = None
        for seed in range(40):
            component = FaultyComponent(
                server_component(),
                FaultProfile.single(FaultKind.TRANSIENT_ERROR, 0.5, seed=seed),
            )
            outcome = RobustExecutor().execute(component, happy_case(), port="srv")
            if outcome.retries and outcome.verdict is TestVerdict.CONFIRMED:
                recovered = outcome
                break
        assert recovered is not None, "no seed recovered within the search range"
        assert recovered.faults >= 1
        assert recovered.validated
        assert recovered.execution.recording == baseline.recording

    def test_exhausted_live_budget_is_inconclusive(self):
        component = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0)
        )
        outcome = RobustExecutor().execute(component, happy_case(), port="srv")
        assert outcome.inconclusive
        assert outcome.verdict is TestVerdict.INCONCLUSIVE
        assert outcome.execution is None and outcome.replay is None
        assert outcome.attempts == RetryPolicy().max_attempts
        assert outcome.faults == outcome.attempts
        assert "injected" in outcome.reason

    def test_step_deadline_converts_hangs_into_timeouts(self):
        component = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.HANG, 1.0)
        )
        executor = RobustExecutor(RetryPolicy(max_attempts=2, step_timeout=0.001))
        outcome = executor.execute(component, happy_case(), port="srv")
        assert outcome.inconclusive
        assert outcome.timeouts == 2
        assert component.fault_counts["hang"] >= 2
        assert "deadline" in outcome.reason

    def test_per_test_deadline_enforced_via_worker_pool(self):
        profile = dataclasses.replace(
            FaultProfile.single(FaultKind.HANG, 1.0), hang_seconds=0.05
        )
        component = FaultyComponent(server_component(), profile)
        executor = RobustExecutor(RetryPolicy(max_attempts=2, test_timeout=0.02))
        outcome = executor.execute(component, happy_case(), port="srv")
        assert outcome.inconclusive
        assert outcome.timeouts >= 1
        assert "deadline" in outcome.reason

    def test_backoff_sleeps_follow_the_deterministic_schedule(self):
        component = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0)
        )
        policy = RetryPolicy(backoff_base=0.01)
        pauses = []
        executor = RobustExecutor(policy, sleep=pauses.append)
        executor.execute(component, happy_case(), port="srv")
        expected = [policy.delay(happy_case().name, attempt) for attempt in range(2)]
        assert pauses == expected
        assert all(pause > 0 for pause in pauses)
        assert expected[1] > expected[0]  # exponential growth survives jitter

    def test_corrupted_recording_never_validates(self):
        # Dropped outputs silently corrupt the recording; validation
        # replays it against the (deterministic) component, catches the
        # divergence, and re-records until the budget dies.
        component = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.DROPPED_OUTPUT, 1.0)
        )
        outcome = RobustExecutor().execute(component, happy_case(), port="srv")
        policy = RetryPolicy()
        assert outcome.inconclusive
        assert outcome.re_records == policy.record_rounds
        assert "diverged" in outcome.reason

    def test_replay_flips_trigger_re_records(self):
        component = FaultyComponent(
            server_component(), FaultProfile.single(FaultKind.REPLAY_FLIP, 1.0)
        )
        outcome = RobustExecutor().execute(component, happy_case(), port="srv")
        policy = RetryPolicy()
        assert outcome.inconclusive
        assert outcome.re_records == policy.record_rounds
        assert outcome.replays_performed == policy.record_rounds * policy.replay_attempts

    def test_replay_validated_exhausts_its_budget(self):
        component = server_component()
        execution = execute_test(component, happy_case(), port="srv")
        flipping = FaultyComponent(
            component, FaultProfile.single(FaultKind.REPLAY_FLIP, 1.0)
        )
        with pytest.raises(ReplayError):
            RobustExecutor().replay_validated(flipping, execution.recording, port="srv")
        clean = RobustExecutor().replay_validated(component, execution.recording, port="srv")
        assert not clean.blocked

    def test_retry_spans_are_emitted(self):
        tracer = Tracer()
        component = FaultyComponent(
            server_component(),
            FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0),
            tracer=tracer,
        )
        RobustExecutor(tracer=tracer).execute(component, happy_case(), port="srv")
        names = {span.name for span in tracer.spans}
        assert "test.retry" in names
        assert "fault.inject" in names


# ---------------------------------------------------------------- quarantine


class TestQuarantine:
    def run(self, tag="r"):
        return Run((tag, "l0"))

    def test_push_drain_round_trip_keeps_probe_flags(self):
        quarantine = Quarantine()
        a, b = self.run("a"), self.run("b")
        assert quarantine.push(a, probe=True)
        assert quarantine.push(b, probe=False)
        assert len(quarantine) == 2
        assert quarantine.drain() == [(a, True), (b, False)]
        assert len(quarantine) == 0

    def test_duplicate_pushes_are_ignored_while_queued(self):
        quarantine = Quarantine()
        assert quarantine.push(self.run("a"))
        assert not quarantine.push(self.run("a"))
        assert len(quarantine) == 1

    def test_capacity_overflow_is_counted(self):
        quarantine = Quarantine(capacity=2)
        for tag in "abc":
            quarantine.push(self.run(tag))
        assert len(quarantine) == 2
        assert quarantine.dropped == 1

    def test_retry_budget_expires_into_the_report(self):
        quarantine = Quarantine(max_retries=2)
        run = self.run("a")
        for _ in range(2):
            assert quarantine.push(run)
            quarantine.drain()
        assert not quarantine.push(run)  # budget spent
        assert run in quarantine.expired
        assert quarantine.unresolved() == (run,)

    def test_rejects_bad_bounds(self):
        with pytest.raises(SynthesisError):
            Quarantine(capacity=0)
        with pytest.raises(SynthesisError):
            Quarantine(max_retries=0)


# ----------------------------------------------------- Lemma 6 (hypothesis)


RATES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: Arbitrary fault profiles (hangs excluded: they only slow steps down
#: unless a step deadline is configured, which the deterministic tests
#: above cover — sleeping inside hypothesis would dominate the suite).
PROFILES = st.builds(
    FaultProfile,
    seed=st.integers(min_value=0, max_value=10_000),
    transient_error_rate=RATES,
    crash_reset_rate=RATES,
    dropped_output_rate=RATES,
    spurious_output_rate=RATES,
    replay_flip_rate=RATES,
)


class TestLemma6Soundness:
    """CONFIRMED needs a validated fault-free run — under EVERY profile."""

    @given(profile=PROFILES)
    @hyp_settings(max_examples=40, deadline=None, derandomize=True)
    def test_supervised_outcomes_are_sound_and_reproducible(self, profile):
        policy = RetryPolicy()
        fingerprints = []
        for _ in range(2):
            component = FaultyComponent(server_component(), profile)
            outcome = RobustExecutor(policy).execute(component, happy_case(), port="srv")
            if outcome.inconclusive:
                # Degraded, never wrong: no verdict, no recording, a reason.
                assert outcome.verdict is TestVerdict.INCONCLUSIVE
                assert outcome.execution is None and outcome.replay is None
                assert outcome.reason
            elif component.fault_injection_active:
                # A conclusive verdict under possible faults was validated.
                assert outcome.validated
                assert outcome.replay is not None
                assert outcome.replays_performed >= 1
            assert outcome.attempts <= policy.record_rounds * policy.max_attempts
            assert outcome.retries < outcome.attempts or outcome.attempts == 0
            # The component is never left mid-run.
            assert component.period == 0
            fingerprints.append(outcome_fingerprint(outcome))
        assert fingerprints[0] == fingerprints[1]  # seed-reproducible

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @hyp_settings(max_examples=20, deadline=None, derandomize=True)
    def test_inactive_profiles_are_transparent(self, seed):
        component = FaultyComponent(server_component(), FaultProfile(seed=seed))
        outcome = RobustExecutor().execute(component, happy_case(), port="srv")
        raw = execute_test(server_component(), happy_case(), port="srv")
        assert not component.fault_injection_active
        assert outcome.execution.recording == raw.recording
        assert outcome.attempts == 1 and not outcome.validated


# ------------------------------------------------------- the loop under chaos


MATRIX_SEEDS = (1, 2, 3)


def _railcab_run(settings=None):
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        settings=settings,
        port="rearRole",
    ).run()


def _loop_fingerprint(result):
    model = result.final_model
    return (
        result.verdict,
        result.iteration_count,
        tuple(record.knowledge_gained for record in result.iterations),
        frozenset(model.states),
        tuple(sorted(map(repr, model.transitions))),
        tuple(sorted(map(repr, model.refusals))),
        repr(result.violation_witness),
    )


def _chaos_settings(kind, seed):
    profile = FaultProfile.single(kind, 0.05, seed=seed)
    policy = RetryPolicy(max_attempts=6, replay_attempts=4, record_rounds=4)
    if kind is FaultKind.HANG:
        # Hangs need a step deadline to become observable faults; keep
        # the injected stall well above the deadline so the conversion
        # is deterministic, and the rate low so the suite stays fast.
        profile = dataclasses.replace(profile, hang_rate=0.02, hang_seconds=0.05)
        policy = dataclasses.replace(policy, step_timeout=0.02)
    return SynthesisSettings(retry_policy=policy, fault_profile=profile)


class TestLoopUnderChaos:
    def test_seeded_fault_matrix_is_bit_identical_to_fault_free(self):
        baseline = _loop_fingerprint(_railcab_run())
        for kind in FaultKind:
            for seed in MATRIX_SEEDS:
                result = _railcab_run(_chaos_settings(kind, seed))
                assert result.quarantined == (), (kind, seed)
                assert result.total_inconclusive == 0, (kind, seed)
                assert _loop_fingerprint(result) == baseline, (kind, seed)

    def test_hostile_chaos_never_reports_a_false_violation(self):
        for seed in MATRIX_SEEDS:
            settings = SynthesisSettings(
                max_iterations=8,
                retry_policy=RetryPolicy(),
                fault_profile=FaultProfile.hostile(seed),
            )
            result = _railcab_run(settings)
            assert result.verdict is not Verdict.REAL_VIOLATION, seed
            if result.verdict is not Verdict.PROVEN:
                # Degraded honestly: the unresolved counterexamples are
                # reported, not silently dropped (Lemma 6).
                assert result.total_inconclusive > 0, seed

    def test_real_faults_are_still_caught_under_chaos(self):
        fault_free = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
        ).run()
        assert fault_free.verdict is Verdict.REAL_VIOLATION
        chaotic = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            settings=SynthesisSettings(fault_profile=FaultProfile.mild(5)),
            port="rearRole",
        ).run()
        assert chaotic.verdict is Verdict.REAL_VIOLATION
        assert repr(chaotic.violation_witness) == repr(fault_free.violation_witness)

    def test_robustness_counters_are_surfaced(self):
        tracer = Tracer()
        settings = SynthesisSettings(
            fault_profile=FaultProfile.mild(2), tracer=tracer
        )
        result = _railcab_run(settings)
        assert result.verdict is Verdict.PROVEN
        records = result.iterations
        assert result.total_test_retries == sum(r.test_retries for r in records)
        assert result.total_test_timeouts == sum(r.test_timeouts for r in records)
        assert result.total_inconclusive == sum(r.tests_inconclusive for r in records)
        assert all(r.quarantine_size >= 0 for r in records)
        snapshot = tracer.metrics.as_dict()
        assert "quarantine_size" in snapshot["gauges"]
        if result.total_test_retries:
            assert any(
                name.startswith("fault_injected_") for name in snapshot["gauges"]
            )

    def test_multi_loop_proves_under_mild_chaos(self):
        def multi_run(settings=None):
            return MultiLegacySynthesizer(
                None,
                [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle()],
                railcab.PATTERN_CONSTRAINT,
                labelers={
                    "frontShuttle": railcab.front_state_labeler,
                    "rearShuttle": railcab.rear_state_labeler,
                },
                settings=settings,
            ).run()

        baseline = multi_run()
        chaotic = multi_run(
            SynthesisSettings(
                retry_policy=RetryPolicy(max_attempts=6, record_rounds=4),
                fault_profile=FaultProfile.mild(1),
            )
        )
        assert baseline.verdict is Verdict.PROVEN
        assert chaotic.verdict is Verdict.PROVEN
        assert chaotic.quarantined == ()
        for name, model in baseline.final_models.items():
            other = chaotic.final_models[name]
            assert frozenset(model.states) == frozenset(other.states)
            assert sorted(map(repr, model.transitions)) == sorted(
                map(repr, other.transitions)
            )

    def test_env_knobs_reach_the_settings(self, monkeypatch):
        monkeypatch.setenv(TEST_RETRIES_ENV, "3")
        monkeypatch.setenv(FAULT_SEED_ENV, "7")
        settings = SynthesisSettings()
        assert settings.resolved_retry_policy().max_attempts == 4
        assert settings.resolved_fault_profile() == FaultProfile.mild(7)

    def test_settings_reject_wrong_types(self):
        with pytest.raises(SynthesisError):
            SynthesisSettings(retry_policy="twice")
        with pytest.raises(SynthesisError):
            SynthesisSettings(fault_profile="mild")


# ------------------------------------------- real deadlines need a process


class TestRealDeadlinePreemption:
    """S1 regression: only the subprocess adapter can *preempt* a stall.

    The in-process ``RetryPolicy.step_timeout`` is cooperative — it
    observes a stall only after the step returns, so a truly blocking
    ``step()`` would hang the worker thread forever (the per-test
    deadline can abandon the thread, never reclaim it).  Out of
    process, the same stall is SIGKILL-ed at the configured deadline.
    """

    def test_blocking_step_is_killed_within_the_deadline(self):
        import time

        from repro.legacy.remote import RemotePolicy, rehost

        # hang_rate=1.0: every armed live step blocks for 60 seconds —
        # genuinely, inside the host process, not via a checked flag.
        profile = dataclasses.replace(
            FaultProfile.single(FaultKind.HANG, 1.0, seed=7), hang_seconds=60.0
        )
        deadline = 0.4
        policy = RetryPolicy(max_attempts=2, replay_attempts=1, record_rounds=1)
        with rehost(
            server_component(),
            RemotePolicy(step_deadline=deadline, spawn_timeout=60.0),
            fault_profile=profile,
        ) as component:
            start = time.monotonic()
            outcome = RobustExecutor(policy).execute(component, happy_case(), port="srv")
            elapsed = time.monotonic() - start
            # Every attempt stalled and was preempted: without the kill
            # this test would sit for 60 seconds per attempt.
            assert outcome.verdict is TestVerdict.INCONCLUSIVE
            assert outcome.timeouts >= 1
            assert component.remote_stats["component_kills"] >= 1
            assert component.remote_stats["component_respawns"] >= 1
            budget = policy.max_attempts * policy.record_rounds + 2
            assert elapsed < profile.hang_seconds
            assert elapsed < budget * (deadline + 5.0)


def test_worker_pool_call_runs_on_expiry_before_joining_the_straggler():
    import threading
    import time

    from repro.errors import TestTimeoutError

    released = threading.Event()
    pool = WorkerPool()
    try:
        start = time.monotonic()
        with pytest.raises(TestTimeoutError, match="deadline"):
            # Without on_expiry the join would wait out the 30 s stall.
            pool.call(lambda: released.wait(30), timeout=0.05, on_expiry=released.set)
        assert time.monotonic() - start < 10.0
        assert pool.stats["pool_deadline_timeouts"] == 1
    finally:
        released.set()
        pool.shutdown()
