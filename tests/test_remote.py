"""Out-of-process components: wire protocol, supervision, pool, parity.

Covers :mod:`repro.legacy.remote` at every layer: frame encoding over
raw pipes, the in-process :class:`ComponentHost` dispatch table, the
``hello`` interface round-trip (property-based), the real-subprocess
:class:`RemoteComponent` failure taxonomy — crash → respawn, deadline →
SIGKILL, garbage → protocol violation — host-side seed-reproducible
fault injection, the kill ``-9`` soundness guarantee (a murdered host
never manufactures a verdict), the warm :class:`InstancePool`, and the
acceptance pin: the convoy workload under ``remote=True`` is
bit-identical, record by record, to in-process execution.
"""

import dataclasses
import os
import signal
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro import railcab
from repro.automata import Automaton
from repro.errors import (
    ExecutionError,
    FaultInjectionError,
    RemoteComponentError,
    RemoteCrashError,
    RemoteProtocolError,
    ReplayError,
    SynthesisError,
    TestTimeoutError,
)
from repro.legacy import Instrumentation, LegacyComponent
from repro.legacy.interface import InterfaceDescription, interface_of
from repro.legacy.remote import (
    MAX_FRAME_BYTES,
    REMOTE_ENV,
    REMOTE_PROTOCOL_VERSION,
    ComponentHost,
    FrameChannel,
    InstancePool,
    RemoteComponent,
    RemotePolicy,
    _DeadlineExpired,
    interface_from_wire,
    interface_to_wire,
    rehost,
    rehost_payload,
    resolve_remote,
)
from repro.obs import PROGRESS_EVENT_NAMES, CallbackProgressSink, MetricsRegistry, Tracer
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict
from repro.testing import (
    FaultKind,
    FaultProfile,
    FaultyComponent,
    Recording,
    RetryPolicy,
    RobustExecutor,
    TestVerdict,
    execute_test,
    replay,
)
from repro.testing import test_case_from_trace as case_from_trace
from repro.testing.faults import FAULT_SEED_ENV
from repro.automata import Interaction

SETTINGS = hyp_settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

PING = Interaction(["ping"], None)
PONG = Interaction(None, ["pong"])


def server_component(cls=LegacyComponent) -> LegacyComponent:
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
    return cls(hidden, name="server")


class StallingServer(LegacyComponent):
    """The server with a genuinely hung step: every step stalls a minute."""

    def step(self, inputs=()):
        time.sleep(60.0)
        return super().step(inputs)


def stalling_server() -> LegacyComponent:
    """Factory served as ``tests.test_remote:stalling_server``."""
    return server_component(StallingServer)


def happy_case():
    return case_from_trace([PING, PONG, Interaction()], name="happy")


def diverging_case():
    # The server answers the ping with "pong" on the next period, not at once.
    return case_from_trace([Interaction(["ping"], ["pong"])], name="eager")


def blocking_case():
    # "busy" has no reaction to a second ping: the test ends blocked.
    return case_from_trace([PING, PING], name="double-ping")


CASES = (happy_case, diverging_case, blocking_case)


def outcome_tuple(outcome):
    """StepOutcome has no __eq__; compare the observable fields."""
    return (outcome.period, outcome.inputs, outcome.outputs, outcome.blocked)


class EventLog:
    """A sink capturing a RemoteComponent's ``component.*`` events and spans."""

    def __init__(self):
        self.events = []
        self.spans = []

    def emit(self, event):
        self.events.append((event.name, event.payload))

    def on_span(self, span):
        self.spans.append(span)

    def names(self):
        return [name for name, _ in self.events]


# ------------------------------------------------------------ frame channel


def pipe_pair():
    """Two connected FrameChannels over in-process pipes."""
    a_read, a_write = os.pipe()
    b_read, b_write = os.pipe()
    left = FrameChannel(a_read, b_write)
    right = FrameChannel(b_read, a_write)
    fds = (a_read, a_write, b_read, b_write)
    return left, right, fds


def close_fds(fds):
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


class TestFrameChannel:
    def test_round_trip_preserves_payload(self):
        left, right, fds = pipe_pair()
        try:
            payload = {"op": "step", "inputs": ["brakeOk", "convoyProposal"], "n": 7}
            right.send(payload)
            assert left.receive(1.0) == payload
        finally:
            close_fds(fds)

    def test_back_to_back_frames_are_buffered(self):
        left, right, fds = pipe_pair()
        try:
            for index in range(5):
                right.send({"seq": index})
            assert [left.receive(1.0)["seq"] for _ in range(5)] == list(range(5))
        finally:
            close_fds(fds)

    def test_eof_raises_crash_error(self):
        left, _, fds = pipe_pair()
        try:
            os.close(fds[1])  # the peer's write end: reader sees EOF
            with pytest.raises(RemoteCrashError, match="EOF"):
                left.receive(1.0)
        finally:
            close_fds(fds)

    def test_timeout_raises_the_internal_deadline_marker(self):
        left, _, fds = pipe_pair()
        try:
            with pytest.raises(_DeadlineExpired):
                left.receive(0.05)
        finally:
            close_fds(fds)

    def test_zero_length_prefix_is_a_protocol_violation(self):
        left, _, fds = pipe_pair()
        try:
            os.write(fds[1], b"\x00\x00\x00\x00")
            with pytest.raises(RemoteProtocolError, match="length prefix"):
                left.receive(1.0)
        finally:
            close_fds(fds)

    def test_oversized_length_prefix_never_allocates(self):
        left, _, fds = pipe_pair()
        try:
            os.write(fds[1], (MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(RemoteProtocolError, match="length prefix"):
                left.receive(1.0)
        finally:
            close_fds(fds)

    def test_undecodable_body_is_a_protocol_violation(self):
        left, _, fds = pipe_pair()
        try:
            os.write(fds[1], (4).to_bytes(4, "big") + b"\xff\xfe{{")
            with pytest.raises(RemoteProtocolError, match="undecodable"):
                left.receive(1.0)
        finally:
            close_fds(fds)

    def test_non_object_body_is_a_protocol_violation(self):
        left, _, fds = pipe_pair()
        try:
            body = b"[1,2]"
            os.write(fds[1], len(body).to_bytes(4, "big") + body)
            with pytest.raises(RemoteProtocolError, match="JSON object"):
                left.receive(1.0)
        finally:
            close_fds(fds)

    def test_oversized_send_is_refused_locally(self):
        left, right, fds = pipe_pair()
        try:
            with pytest.raises(RemoteProtocolError, match="exceeds"):
                right.send({"blob": "x" * (MAX_FRAME_BYTES + 1)})
        finally:
            close_fds(fds)

    def test_send_to_dead_peer_is_a_crash(self):
        _, right, fds = pipe_pair()
        os.close(fds[0])  # reader gone
        try:
            with pytest.raises(RemoteCrashError, match="pipe closed"):
                for _ in range(64):  # fill any kernel buffering until EPIPE
                    right.send({"op": "step"})
        finally:
            close_fds(fds)


# ----------------------------------------------------- interface round trip


def _signals(prefix):
    names = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=6)
    return st.sets(names.map(lambda s: prefix + s), min_size=1, max_size=5)


INTERFACES = st.builds(
    InterfaceDescription,
    name=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
    inputs=_signals("i_"),
    outputs=_signals("o_"),
    initial_state=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=10),
    state_bound=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)


class TestInterfaceWire:
    @given(interface=INTERFACES)
    @SETTINGS
    def test_round_trip_reconstructs_equal_interface(self, interface):
        assert interface_from_wire(interface_to_wire(interface)) == interface

    def test_component_signature_survives_the_hello_payload(self):
        component = server_component()
        wire = interface_to_wire(interface_of(component))
        assert interface_from_wire(wire) == interface_of(component)

    def test_missing_fields_fail_fast(self):
        with pytest.raises(RemoteProtocolError, match="lacks fields"):
            interface_from_wire({"name": "x", "inputs": []})

    def test_non_object_payload_fails_fast(self):
        with pytest.raises(RemoteProtocolError, match="must be an object"):
            interface_from_wire([1, 2, 3])

    def test_malformed_payload_keeps_the_protocol_error_type(self):
        with pytest.raises(RemoteProtocolError, match="malformed"):
            interface_from_wire(
                {"name": "x", "inputs": ["a"], "outputs": ["a"], "initial_state": "s"}
            )


# ------------------------------------------------------- in-process host


class HostHarness:
    """Drive a ComponentHost over in-process pipes from the test thread."""

    def __init__(self, component=None, *, fault_profile=None, forced_version=None):
        self.host = ComponentHost(
            component, fault_profile=fault_profile, forced_version=forced_version
        )
        host_channel, self.driver, self._fds = pipe_pair()
        self._thread = threading.Thread(
            target=self.host.serve, args=(host_channel,), daemon=True
        )
        self._thread.start()

    def request(self, **payload):
        self.driver.send(payload)
        return self.driver.receive(5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.driver.send({"op": "shutdown"})
            self.driver.receive(1.0)
        except (RemoteComponentError, _DeadlineExpired, OSError):
            pass
        self._thread.join(timeout=2)
        close_fds(self._fds)


class TestComponentHost:
    def test_hello_reports_version_interface_and_counters(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="hello", version=REMOTE_PROTOCOL_VERSION)
            assert reply["ok"] and reply["version"] == REMOTE_PROTOCOL_VERSION
            assert interface_from_wire(reply["interface"]) == interface_of(server_component())
            assert reply["counters"] == [0, 0, 0]
            assert reply["fault_active"] is False

    def test_version_mismatch_is_an_error_reply(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="hello", version=99)
            assert reply == {
                "ok": False,
                "error": "RemoteProtocolError",
                "message": (
                    "protocol version mismatch: driver speaks 99, host speaks "
                    f"{REMOTE_PROTOCOL_VERSION}"
                ),
            }

    def test_forced_version_advertises_the_override(self):
        with HostHarness(server_component(), forced_version=3) as harness:
            reply = harness.request(op="hello", version=3)
            assert reply["ok"] and reply["version"] == 3

    def test_step_reset_observe_mirror_the_counters(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="step", inputs=["ping"])
            assert reply["ok"] and reply["outputs"] == [] and not reply["blocked"]
            assert reply["counters"] == [1, 0, 0]
            reply = harness.request(op="step", inputs=[])
            assert reply["outputs"] == ["pong"]
            harness.request(op="instrument", level="full", live=False)
            reply = harness.request(op="observe", probe=True)
            assert reply["state"] == "ready"
            assert reply["counters"] == [2, 0, 1]
            harness.request(op="uninstrument")
            reply = harness.request(op="reset")
            assert reply["counters"] == [2, 1, 1] and reply["period"] == 0

    def test_unknown_operation_is_a_protocol_error_reply(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="transmogrify")
            assert not reply["ok"] and reply["error"] == "RemoteProtocolError"
            assert "unknown operation" in reply["message"]

    def test_step_before_load_demands_a_load_frame(self):
        with HostHarness() as harness:
            reply = harness.request(op="step", inputs=[])
            assert not reply["ok"] and "load" in reply["message"]

    def test_load_installs_a_component_into_a_generic_host(self):
        with HostHarness() as harness:
            ping = harness.request(op="ping")
            assert ping["ok"] and ping["pong"] and not ping["loaded"]
            reply = harness.request(op="load", **rehost_payload(server_component()))
            assert reply["ok"] and reply["counters"] == [0, 0, 0]
            assert harness.request(op="ping")["loaded"]
            hello = harness.request(op="hello", version=REMOTE_PROTOCOL_VERSION)
            assert hello["interface"]["name"] == "server"

    def test_unbalanced_scopes_are_protocol_errors(self):
        with HostHarness(server_component()) as harness:
            for op in ("uninstrument", "disarm"):
                reply = harness.request(op=op)
                assert not reply["ok"] and reply["error"] == "RemoteProtocolError"

    def test_instrument_and_arm_track_depth(self):
        profile = FaultProfile.mild(3)
        with HostHarness(server_component(), fault_profile=profile) as harness:
            assert harness.request(op="instrument", level="full", live=True)["depth"] == 1
            assert harness.request(op="uninstrument")["depth"] == 0
            armed = harness.request(op="arm")
            assert armed["depth"] == 1 and armed["fault_active"] is True
            assert harness.request(op="disarm")["depth"] == 0

    def test_execute_runs_the_whole_test_in_one_frame(self):
        local = server_component()
        expected = execute_test(local, happy_case())
        with HostHarness(server_component()) as harness:
            reply = harness.request(
                op="execute",
                testcase={"name": "happy", "steps": [[["ping"], []], [[], ["pong"]], [[], []]]},
                step_timeout=None,
            )
        assert reply["ok"] and reply["verdict"] == "confirmed"
        assert reply["divergence_index"] is None
        assert reply["steps"] == [
            [step.period, sorted(step.observed_outputs), step.blocked]
            for step in expected.recording.steps
        ]
        assert reply["counters"] == [local.steps_executed, local.resets, local.state_probes]

    def test_replay_returns_states_and_the_blocked_tail(self):
        local = server_component()
        recording = execute_test(local, blocking_case()).recording
        expected = replay(local, recording).observed_run
        with HostHarness(server_component()) as harness:
            reply = harness.request(
                op="replay",
                recording={
                    "component": "server",
                    "steps": [
                        [
                            step.period,
                            sorted(step.inputs),
                            sorted(step.observed_outputs),
                            sorted(step.expected_outputs),
                            step.blocked,
                        ]
                        for step in recording.steps
                    ],
                },
            )
        assert reply["ok"] and reply["start"] == expected.start
        assert reply["states"] == [state for _, state in expected.steps]
        assert reply["blocked"] == [["ping"], []]
        assert reply["probe_effect_free"] is True

    def test_host_side_replay_divergence_keeps_its_class(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="replay", recording={"component": "other", "steps": []})
            assert reply["error"] == "ReplayError" and "belongs to 'other'" in reply["message"]
            assert reply["counters"] == [0, 0, 0]  # whole-run errors mirror the counters
            assert harness.request(op="ping")["ok"]


#: Frames whose JSON parses but whose fields have the wrong shape.  Each
#: must come back as one RemoteProtocolError reply, never a host crash.
MALFORMED_FRAMES = {
    "instrument-without-level": {"op": "instrument"},
    "instrument-bogus-level": {"op": "instrument", "level": "bogus", "live": True},
    "instrument-without-live": {"op": "instrument", "level": "full"},
    "step-inputs-not-a-list": {"op": "step", "inputs": 5},
    "step-inputs-not-signals": {"op": "step", "inputs": [1, 2]},
    "observe-probe-not-a-flag": {"op": "observe", "probe": "yes"},
    "reseed-seed-not-an-integer": {"op": "reseed", "seed": "x"},
    "load-without-automaton": {"op": "load", "name": "server"},
    "load-garbage-automaton": {"op": "load", "automaton": {"states": 3}, "name": "x"},
    "load-garbage-fault": {
        **rehost_payload(server_component()),
        "op": "load",
        "fault": {"bogus_rate": 1},
    },
    "execute-without-testcase": {"op": "execute"},
    "execute-testcase-without-name": {"op": "execute", "testcase": {"steps": []}},
    "execute-steps-not-rows": {"op": "execute", "testcase": {"name": "t", "steps": [["ping"]]}},
    "execute-step-signals-not-lists": {
        "op": "execute",
        "testcase": {"name": "t", "steps": [["ping", []]]},
    },
    "execute-negative-step-timeout": {
        "op": "execute",
        "testcase": {"name": "t", "steps": []},
        "step_timeout": -1,
    },
    "execute-step-timeout-not-a-number": {
        "op": "execute",
        "testcase": {"name": "t", "steps": []},
        "step_timeout": "1",
    },
    "execute-step-deadline-not-a-number": {
        "op": "execute",
        "testcase": {"name": "t", "steps": []},
        "step_deadline": [5],
    },
    "replay-without-recording": {"op": "replay"},
    "replay-zero-step-deadline": {
        "op": "replay",
        "recording": {"component": "server", "steps": []},
        "step_deadline": 0,
    },
    "replay-steps-wrong-width": {
        "op": "replay",
        "recording": {"component": "server", "steps": [[1, [], [], []]]},
    },
    "replay-period-not-an-integer": {
        "op": "replay",
        "recording": {"component": "server", "steps": [["1", [], [], [], False]]},
    },
    "replay-blocked-not-a-flag": {
        "op": "replay",
        "recording": {"component": "server", "steps": [[1, [], [], [], "no"]]},
    },
}


class TestMalformedFrames:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_field_is_one_typed_protocol_error(self, case):
        with HostHarness(server_component()) as harness:
            reply = harness.request(**MALFORMED_FRAMES[case])
            assert reply["ok"] is False and reply["error"] == "RemoteProtocolError", reply
            # The host survived the frame and still serves.
            assert harness.request(op="ping")["ok"]


# ------------------------------------------------- subprocess supervision


def remote_policy(**overrides):
    return RemotePolicy(**{"step_deadline": 10.0, "spawn_timeout": 60.0, **overrides})


class TestRemoteComponentParity:
    def test_rehosted_component_matches_in_process_execution(self):
        local = server_component()
        with rehost(server_component(), remote_policy()) as remote:
            assert interface_of(remote) == interface_of(local)
            for inputs in (frozenset({"ping"}), frozenset(), frozenset({"ping"})):
                assert outcome_tuple(remote.step(inputs)) == outcome_tuple(local.step(inputs))
            with remote.instrumented(Instrumentation.FULL, live=False):
                with local.instrumented(Instrumentation.FULL, live=False):
                    assert remote.monitor_state() == local.monitor_state()
            assert (remote.steps_executed, remote.resets, remote.state_probes) == (
                local.steps_executed,
                local.resets,
                local.state_probes,
            )
            remote.reset(), local.reset()
            assert remote.period == local.period == 0
            assert remote.ping()
            assert remote.fault_injection_active is False

    def test_spec_served_factory_component(self):
        with RemoteComponent(
            "repro.railcab:correct_rear_shuttle", policy=remote_policy()
        ) as remote:
            assert remote.name == "rearShuttle"
            local = railcab.correct_rear_shuttle()
            assert interface_of(remote) == interface_of(local)
            assert outcome_tuple(remote.step(frozenset())) == outcome_tuple(
                local.step(frozenset())
            )

    def test_one_frame_execute_and_replay_match_in_process(self):
        local = server_component()
        with rehost(server_component(), remote_policy()) as remote:
            for make_case in CASES:
                remote_execution = execute_test(remote, make_case(), port="srv")
                local_execution = execute_test(local, make_case(), port="srv")
                assert remote_execution == local_execution, make_case.__name__
                assert replay(remote, remote_execution.recording, port="srv") == replay(
                    local, local_execution.recording, port="srv"
                ), make_case.__name__
            assert (remote.steps_executed, remote.resets, remote.state_probes) == (
                local.steps_executed,
                local.resets,
                local.state_probes,
            )

    def test_spawn_emits_event_and_span(self):
        log = EventLog()
        with rehost(server_component(), remote_policy(), tracer=Tracer(log)) as remote:
            remote.step(frozenset({"ping"}))
        assert log.names() == ["component.spawn"]
        assert "component.spawn" in {span.name for span in log.spans}


class TestRemoteComponentFailures:
    def test_death_between_operations_surfaces_exactly_once(self):
        log = EventLog()
        with rehost(server_component(), remote_policy(), tracer=Tracer(log)) as remote:
            remote.step(frozenset({"ping"}))
            os.kill(remote.pid, signal.SIGKILL)
            remote._process.wait(timeout=10)
            with pytest.raises(RemoteCrashError, match="died"):
                remote.step(frozenset())
            # The crash is a FaultInjectionError: the executor's bounded
            # retry path handles it like an injected fault (Lemma 6).
            assert issubclass(RemoteCrashError, FaultInjectionError)
            # The raising respawned a fresh host; the retry just works.
            outcome = remote.step(frozenset({"ping"}))
            assert not outcome.blocked
            assert remote.remote_stats["component_respawns"] == 1
        assert log.names().count("component.respawn") == 1

    def test_mid_request_death_is_reported_then_respawns_quietly(self):
        with rehost(server_component(), remote_policy()) as remote:
            os.kill(remote.pid, signal.SIGKILL)
            remote._process.wait(timeout=10)
            remote._death_reported = False  # simulate death during a request
            with pytest.raises(RemoteCrashError):
                remote.step(frozenset())
            assert remote.alive  # respawned by _ensure_alive
            assert remote.step(frozenset({"ping"})).period == 1

    def test_step_deadline_kills_the_host_for_real(self):
        profile = dataclasses.replace(
            FaultProfile.single(FaultKind.HANG, 1.0, seed=7), hang_seconds=60.0
        )
        log = EventLog()
        with rehost(
            server_component(),
            remote_policy(step_deadline=0.4),
            fault_profile=profile,
            tracer=Tracer(log),
        ) as remote:
            assert remote.fault_injection_active
            import time

            with remote.inject_faults():
                start = time.monotonic()
                with pytest.raises(TestTimeoutError, match="deadline"):
                    remote.step(frozenset({"ping"}))
                elapsed = time.monotonic() - start
            # The 60s stall was preempted at the 0.4s deadline: the host
            # process is dead, not merely abandoned on a thread.
            assert elapsed < 10.0
            assert not remote.alive
            assert remote.remote_stats["component_kills"] == 1
            assert "component.kill" in log.names()
            # The next use respawns without a second fault report.
            remote.reset()
            assert remote.alive
            assert remote.remote_stats["component_respawns"] == 1

    @pytest.mark.parametrize("op", ["execute", "replay"])
    def test_hung_step_in_a_whole_run_frame_is_killed_after_one_step_deadline(
        self, op, monkeypatch
    ):
        # Twelve steps: a 4.8 s execute and a 9 s replay frame budget.
        case = case_from_trace([PING, PONG, Interaction()] * 4, name="long")
        recording = execute_test(server_component(), case).recording
        root = str(Path(__file__).resolve().parents[1])
        paths = [root, os.environ.get("PYTHONPATH")]
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        with RemoteComponent(
            "tests.test_remote:stalling_server", policy=remote_policy(step_deadline=0.3)
        ) as remote:
            start = time.monotonic()
            with pytest.raises(TestTimeoutError, match=f"'{op}'.*past the 0.300s step deadline"):
                if op == "execute":
                    execute_test(remote, case)
                else:
                    replay(remote, recording)
            elapsed = time.monotonic() - start
            # The host's watchdog caught the first step's stall, long
            # before the frame budget ran out.
            assert 0.3 <= elapsed < 2.0
            assert not remote.alive
            assert remote.remote_stats["component_kills"] == 1
            remote.reset()  # the timeout reported the death: quiet respawn
            assert remote.remote_stats["component_respawns"] == 1

    def test_frame_deadline_backstops_the_host_watchdog(self, monkeypatch):
        profile = dataclasses.replace(
            FaultProfile.single(FaultKind.HANG, 1.0, seed=7), hang_seconds=60.0
        )
        real_send = FrameChannel.send

        def unwatched_send(channel, payload):
            # A host that never arms its watchdog (a stall it cannot see).
            real_send(channel, {**payload, "step_deadline": None})

        with rehost(
            server_component(), remote_policy(step_deadline=0.2), fault_profile=profile
        ) as remote:
            monkeypatch.setattr(FrameChannel, "send", unwatched_send)
            with remote.inject_faults():
                start = time.monotonic()
                # Three steps plus four fixed operations: a 1.4 s frame budget.
                with pytest.raises(TestTimeoutError, match="'execute'.*1.400s deadline"):
                    execute_test(remote, happy_case())
                elapsed = time.monotonic() - start
            assert 1.4 <= elapsed < 10.0
            assert not remote.alive
            assert remote.remote_stats["component_kills"] == 1
            assert execute_test(remote, happy_case()).confirmed  # quiet respawn, unarmed

    def test_step_timeout_still_fires_on_a_remote_step(self):
        profile = dataclasses.replace(
            FaultProfile.single(FaultKind.HANG, 1.0, seed=7), hang_seconds=0.5
        )
        policy = RetryPolicy(max_attempts=1, record_rounds=1, step_timeout=0.1)
        with rehost(server_component(), remote_policy(), fault_profile=profile) as remote:
            outcome = RobustExecutor(policy).execute(remote, happy_case())
            assert outcome.inconclusive and outcome.timeouts == 1
            # The host-side per-step check fired, not the 70 s frame deadline.
            assert "exceeding the 0.100s per-step deadline" in outcome.reason
            # As before, the executor preempts the host after a timeout.
            assert remote.remote_stats["component_kills"] == 1

    def test_test_deadline_interrupt_preempts_a_blocked_execute(self):
        import time

        profile = dataclasses.replace(
            FaultProfile.single(FaultKind.HANG, 1.0, seed=7), hang_seconds=60.0
        )
        policy = RetryPolicy(max_attempts=1, record_rounds=1, test_timeout=0.5)
        with rehost(server_component(), remote_policy(), fault_profile=profile) as remote:
            start = time.monotonic()
            outcome = RobustExecutor(policy).execute(remote, happy_case())
            # The worker thread blocked on the execute reply: the test
            # deadline's interrupt() turned that read into EOF, long
            # before the 70 s frame deadline.
            assert time.monotonic() - start < 5.0
            assert outcome.inconclusive and outcome.timeouts == 1
            assert remote.remote_stats["component_kills"] == 1
            assert execute_test(remote, happy_case()).confirmed  # quiet respawn, unarmed
            assert remote.remote_stats["component_respawns"] == 1

    def test_host_side_faults_keep_their_class(self):
        profile = FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0, seed=3)
        with rehost(server_component(), remote_policy(), fault_profile=profile) as remote:
            with remote.inject_faults():
                with pytest.raises(FaultInjectionError, match="injected transient error"):
                    execute_test(remote, happy_case())
            assert remote.alive and remote.fault_counts["transient_error"] == 1
            with pytest.raises(ReplayError, match="belongs to 'other'"):
                replay(remote, Recording(component="other", steps=()))
            assert remote.alive

    def test_kill_during_execute_is_exactly_one_crash(self, monkeypatch):
        with rehost(server_component(), remote_policy()) as remote:
            real_send = FrameChannel.send

            def killing_send(channel, payload):
                if payload.get("op") == "execute" and not remote.remote_stats["component_respawns"]:
                    os.kill(remote.pid, signal.SIGKILL)
                real_send(channel, payload)

            monkeypatch.setattr(FrameChannel, "send", killing_send)
            with pytest.raises(RemoteCrashError, match="died during 'execute'"):
                execute_test(remote, happy_case())
            # The death was reported by that raise: the retry respawns quietly.
            assert execute_test(remote, happy_case()).confirmed
            assert remote.remote_stats["component_respawns"] == 1

    @pytest.mark.parametrize(
        "make_case, key, garble",
        [
            (happy_case, "verdict", lambda reply: {**reply, "steps": [[1, "pong", False]]}),
            (happy_case, "verdict", lambda reply: {**reply, "steps": reply["steps"][:-1]}),
            (blocking_case, "verdict", lambda reply: {**reply, "verdict": "diverged"}),
            (happy_case, "states", lambda reply: {**reply, "states": reply["states"][:-1]}),
            (blocking_case, "states", lambda reply: {**reply, "blocked": None}),
            (happy_case, "states", lambda reply: {**reply, "blocked": [["ping"], []]}),
        ],
        ids=[
            "execute-outputs-not-a-list",
            "execute-shortened-confirmed-run",
            "execute-blocked-step-in-a-diverged-run",
            "replay-shortened-run",
            "replay-blocked-tail-dropped",
            "replay-blocked-tail-invented",
        ],
    )
    def test_malformed_whole_run_reply_is_a_protocol_violation(
        self, monkeypatch, make_case, key, garble
    ):
        log = EventLog()
        recording = execute_test(server_component(), make_case()).recording
        op = "execute" if key == "verdict" else "replay"
        with rehost(server_component(), remote_policy(), tracer=Tracer(log)) as remote:
            real_receive = FrameChannel.receive

            def garbled_receive(channel, timeout=None):
                reply = real_receive(channel, timeout)
                return garble(reply) if key in reply else reply

            monkeypatch.setattr(FrameChannel, "receive", garbled_receive)
            with pytest.raises(RemoteProtocolError, match=f"malformed '{op}' reply"):
                if op == "execute":
                    execute_test(remote, make_case())
                else:
                    replay(remote, recording)
            assert not remote.alive
            assert "component.violation" in log.names()

    def test_protocol_violation_kills_host_and_emits_event(self):
        log = EventLog()
        with rehost(server_component(), remote_policy(), tracer=Tracer(log)) as remote:
            with pytest.raises(RemoteProtocolError, match="unknown operation"):
                remote._call({"op": "transmogrify"})
            assert not remote.alive
            assert "component.violation" in log.names()
            assert "component.kill" in log.names()
            # Protocol violations are NOT retryable faults.
            assert not issubclass(RemoteProtocolError, FaultInjectionError)
            remote.reset()  # quiet respawn: the violation was surfaced
            assert remote.alive

    def test_version_mismatch_fails_construction_fast(self, monkeypatch):
        from repro.legacy import remote as remote_module

        real_popen = remote_module.subprocess.Popen

        def forced(command, **kwargs):
            return real_popen(command + ["--force-protocol-version", "99"], **kwargs)

        monkeypatch.setattr(remote_module.subprocess, "Popen", forced)
        with pytest.raises(RemoteProtocolError, match="version mismatch"):
            rehost(server_component(), remote_policy())

    def test_interrupt_preempts_from_outside_the_lock(self):
        with rehost(server_component(), remote_policy()) as remote:
            pid = remote.pid
            remote.interrupt("test-deadline")
            assert remote.remote_stats["component_kills"] == 1
            remote._process.wait(timeout=10)
            assert not remote.alive
            remote.reset()  # already reported: respawns quietly
            assert remote.alive and remote.pid != pid

    def test_closed_proxy_refuses_operations(self):
        remote = rehost(server_component(), remote_policy())
        remote.close()
        with pytest.raises(ExecutionError, match="closed"):
            remote.step(frozenset())
        remote.close()  # idempotent


class TestEventAndStatNames:
    def test_component_events_are_in_the_progress_vocabulary(self):
        assert {
            "component.spawn",
            "component.kill",
            "component.respawn",
            "component.violation",
        } <= PROGRESS_EVENT_NAMES

    def test_remote_stats_names_are_pinned(self):
        with rehost(server_component(), remote_policy()) as remote:
            assert set(remote.remote_stats) == {
                "component_spawns",
                "component_kills",
                "component_respawns",
            }

    def test_pool_stats_names_are_pinned(self):
        with InstancePool(server_component(), size=1, policy=remote_policy()) as pool:
            assert set(pool.stats) == {
                "pool_size",
                "pool_spawns",
                "pool_reuses",
                "pool_respawns",
                "pool_kills",
            }


# ------------------------------------------------- host-side chaos (S2)


def outcome_fingerprint(outcome):
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
    )


CHAOS_SEEDS = (1, 2, 3)


def _chaos_profile(seed):
    # Hot enough to actually fire on a three-step case; hang stays off
    # so the comparison is about schedules, not wall clocks.
    return FaultProfile(
        seed=seed,
        transient_error_rate=0.2,
        crash_reset_rate=0.15,
        dropped_output_rate=0.1,
        spurious_output_rate=0.1,
        replay_flip_rate=0.15,
    )


class TestHostSideChaos:
    def test_fault_schedule_is_bit_reproducible_across_the_wire(self):
        policy = RetryPolicy(max_attempts=8, replay_attempts=4, record_rounds=4)
        for seed in CHAOS_SEEDS:
            profile = _chaos_profile(seed)
            local = FaultyComponent.wrap(server_component(), profile)
            local_outcome = RobustExecutor(policy).execute(local, happy_case(), port="srv")
            with rehost(
                server_component(), remote_policy(), fault_profile=profile
            ) as remote:
                remote_outcome = RobustExecutor(policy).execute(
                    remote, happy_case(), port="srv"
                )
                assert outcome_fingerprint(remote_outcome) == outcome_fingerprint(
                    local_outcome
                ), seed
                # The host-side tallies match the in-process wrapper's.
                assert remote.fault_counts == local.fault_counts, seed

    def test_rehosting_a_faulty_component_moves_the_profile_host_side(self):
        profile = FaultProfile.mild(11)
        wrapped = FaultyComponent.wrap(server_component(), profile)
        payload = rehost_payload(wrapped)
        assert payload["fault"] == profile.as_wire()
        assert payload["name"] == "server"

    def test_env_armed_seed_reaches_the_spec_served_host(self, monkeypatch):
        monkeypatch.setenv(FAULT_SEED_ENV, "5")
        with RemoteComponent(
            "repro.railcab:correct_rear_shuttle", policy=remote_policy()
        ) as remote:
            assert remote.fault_injection_active
            assert remote.fault_counts == {kind.value: 0 for kind in FaultKind}


# --------------------------------------------- loop integration + soundness


def _convoy(settings=None):
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=1),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        settings=settings,
        port="rearRole",
    )


def _model_fingerprint(result):
    model = result.final_model
    return (
        frozenset(model.states),
        tuple(sorted(map(repr, model.transitions))),
        tuple(sorted(map(repr, model.refusals))),
    )


class TestLoopIntegration:
    def test_convoy_verdict_is_bit_identical_to_in_process(self):
        baseline = _convoy().run()
        result = _convoy(SynthesisSettings(remote=remote_policy())).run()
        assert result.verdict is baseline.verdict is Verdict.PROVEN
        assert result.iteration_count == baseline.iteration_count
        # The acceptance pin: record by record, not just the verdict.
        for remote_record, local_record in zip(result.iterations, baseline.iterations):
            assert remote_record == local_record
        assert _model_fingerprint(result) == _model_fingerprint(baseline)

    def test_convoy_chaos_matches_in_process_chaos(self):
        profile = FaultProfile.mild(1)
        local = _convoy(SynthesisSettings(fault_profile=profile)).run()
        remote = _convoy(
            SynthesisSettings(fault_profile=profile, remote=remote_policy())
        ).run()
        assert remote.verdict is local.verdict is Verdict.PROVEN
        assert remote.iteration_count == local.iteration_count
        assert _model_fingerprint(remote) == _model_fingerprint(local)
        assert remote.total_inconclusive == local.total_inconclusive == 0

    def test_one_frame_per_execution_and_per_replay(self, monkeypatch):
        # Pins the round-trip count: a slide back to per-step RPC sends
        # thousands of frames on this workload.  Fault-free: an armed
        # profile adds arm/disarm frames and retries.
        monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
        sent = []
        real_send = FrameChannel.send

        def counting_send(channel, payload):
            sent.append(payload.get("op"))
            real_send(channel, payload)

        monkeypatch.setattr(FrameChannel, "send", counting_send)
        synthesizer = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=32),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            settings=SynthesisSettings(remote=remote_policy()),
            port="rearRole",
        )
        result = synthesizer.run()
        synthesizer.component.close()
        assert result.verdict is Verdict.PROVEN
        tests = sum(record.tests_executed for record in result.iterations)
        assert tests > 50
        spawn_and_close = ["load", "hello", "shutdown"]
        assert [op for op in sent if op in spawn_and_close] == spawn_and_close
        assert len(sent) <= 2 * tests + len(spawn_and_close)
        assert "step" not in sent

    def test_kill_during_execute_recovers_to_proven(self, monkeypatch):
        monkeypatch.delenv(FAULT_SEED_ENV, raising=False)  # the kill is the only fault
        crashes = []
        state = {}
        real_send = FrameChannel.send
        real_execute = RemoteComponent.execute_in_host

        def killing_send(channel, payload):
            if payload.get("op") == "execute" and "synth" in state and "killed" not in state:
                state["killed"] = True
                os.kill(state["synth"].component.pid, signal.SIGKILL)
            real_send(channel, payload)

        def counting_execute(component, *args, **kwargs):
            try:
                return real_execute(component, *args, **kwargs)
            except RemoteCrashError as error:
                crashes.append(error)
                raise

        monkeypatch.setattr(FrameChannel, "send", killing_send)
        monkeypatch.setattr(RemoteComponent, "execute_in_host", counting_execute)
        synthesizer = _convoy(SynthesisSettings(remote=remote_policy()))
        state["synth"] = synthesizer
        result = synthesizer.run()
        assert state.get("killed")
        assert len(crashes) == 1
        assert sum(record.test_retries for record in result.iterations) == 1
        assert result.verdict is Verdict.PROVEN
        assert synthesizer.component.remote_stats["component_respawns"] == 1

    def test_kill_nine_never_manufactures_a_violation(self):
        # The acceptance chaos leg: SIGKILL the live host mid-run at
        # three different points; the loop must recover through the
        # crash-fault path (respawn + retry) or degrade soundly — a
        # murdered process can never produce REAL_VIOLATION.
        for kill_at in (1, 2, 3):
            state = {}

            def killer(event, _state=state, _kill_at=kill_at):
                if (
                    event.name == "iteration.started"
                    and event.payload.get("iteration") == _kill_at
                    and "done" not in _state
                ):
                    _state["done"] = True
                    pid = _state["synth"].component.pid
                    if pid is not None:
                        os.kill(pid, signal.SIGKILL)

            synthesizer = _convoy(
                SynthesisSettings(
                    remote=remote_policy(),
                    tracer=Tracer(CallbackProgressSink(killer)),
                )
            )
            state["synth"] = synthesizer
            result = synthesizer.run()
            assert state.get("done"), kill_at
            assert result.verdict is not Verdict.REAL_VIOLATION, kill_at
            assert synthesizer.component.remote_stats["component_respawns"] >= 1, kill_at
            # The convoy component is correct: recovery converges.
            assert result.verdict is Verdict.PROVEN, kill_at


# ----------------------------------------------------------------- pool


class TestInstancePool:
    def test_prefork_reuse_and_release_cycle(self):
        with InstancePool(server_component(), size=2, policy=remote_policy()) as pool:
            assert pool.warm == 2 and pool.stats["pool_spawns"] == 2
            with pool.lease() as component:
                assert component.ping()
                component.step(frozenset({"ping"}))
                assert pool.warm == 1
            assert pool.warm == 2  # released back, reset
            with pool.lease() as component:
                # Reset on release: the run position is rewound (the
                # cumulative black-box counters keep counting).
                assert component.period == 0 and component.resets == 1
            assert pool.stats["pool_reuses"] == 2
            assert pool.stats["pool_kills"] == 0

    def test_dead_idle_instance_is_replaced(self):
        with InstancePool(server_component(), size=2, policy=remote_policy()) as pool:
            victim = pool._free[-1]  # acquired first (LIFO)
            os.kill(victim.pid, signal.SIGKILL)
            victim._process.wait(timeout=10)
            leased = pool.acquire()
            try:
                assert leased is not victim
                assert leased.ping()
            finally:
                pool.release(leased)
            stats = pool.stats
            assert stats["pool_kills"] == 1 and stats["pool_respawns"] == 1
            assert stats["pool_reuses"] == 1

    def test_exhausted_pool_spawns_and_surplus_release_kills(self):
        with InstancePool(server_component(), size=1, policy=remote_policy()) as pool:
            first = pool.acquire()
            second = pool.acquire()  # beyond the warm set: cold spawn
            assert pool.stats["pool_spawns"] == 2
            pool.release(first)
            pool.release(second)  # free list full: surplus is killed
            assert pool.warm == 1
            assert pool.stats["pool_kills"] == 1
            assert not second.alive

    def test_gauges_publish_to_a_metrics_registry(self):
        registry = MetricsRegistry()
        with InstancePool(server_component(), size=1, policy=remote_policy()) as pool:
            pool.publish_to(registry)
            assert registry.gauge("pool_size").value == 1
            assert registry.gauge("pool_spawns").value == 1
            assert registry.gauge("pool_respawns").value == 0
            assert registry.gauge("pool_kills").value == 0

    def test_closed_pool_refuses_leases(self):
        pool = InstancePool(server_component(), size=1, policy=remote_policy())
        pool.close()
        with pytest.raises(SynthesisError, match="closed"):
            pool.acquire()
        pool.close()  # idempotent

    def test_fault_profile_with_factory_spec_is_refused(self):
        with pytest.raises(SynthesisError, match="fault_profile"):
            InstancePool(
                "repro.railcab:correct_rear_shuttle",
                fault_profile=FaultProfile.mild(1),
            )

    def test_pool_size_must_be_positive(self):
        with pytest.raises(SynthesisError, match="positive"):
            InstancePool(server_component(), size=0)


# ------------------------------------------------------- knobs and refusals


class TestResolveRemote:
    def test_policy_and_booleans(self):
        policy = RemotePolicy(step_deadline=1.0)
        assert resolve_remote(policy) is policy
        assert resolve_remote(True) == RemotePolicy()
        assert resolve_remote(False) is None

    def test_environment_fallback(self, monkeypatch):
        for raw in ("", "0", "false", "no", "off", " OFF "):
            monkeypatch.setenv(REMOTE_ENV, raw)
            assert resolve_remote(None) is None
        for raw in ("1", "true", "yes", "on", "True"):
            monkeypatch.setenv(REMOTE_ENV, raw)
            assert resolve_remote(None) == RemotePolicy()
        for raw in ("of", "2", "enable"):
            monkeypatch.setenv(REMOTE_ENV, raw)
            with pytest.raises(SynthesisError, match=f"{REMOTE_ENV}.*{raw!r}"):
                resolve_remote(None)
        monkeypatch.delenv(REMOTE_ENV)
        assert resolve_remote(None) is None

    def test_garbage_is_refused(self):
        with pytest.raises(SynthesisError, match="remote must be"):
            resolve_remote(42)

    def test_settings_validate_the_remote_knob(self, monkeypatch):
        monkeypatch.delenv(REMOTE_ENV, raising=False)
        with pytest.raises(SynthesisError, match="remote"):
            SynthesisSettings(remote=42)
        assert SynthesisSettings(remote=True).resolved_remote() == RemotePolicy()
        assert SynthesisSettings().resolved_remote() is None

    def test_policy_validates_its_knobs(self):
        with pytest.raises(SynthesisError, match="step_deadline"):
            RemotePolicy(step_deadline=0)
        with pytest.raises(SynthesisError, match="spawn_timeout"):
            RemotePolicy(spawn_timeout=-1)
        with pytest.raises(SynthesisError, match="pool_size"):
            RemotePolicy(pool_size=0)


class TestRehostRefusals:
    def test_components_without_a_hidden_automaton_are_refused(self):
        class Opaque:
            name = "opaque"

            def step(self, inputs):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(SynthesisError, match="not backed by a hidden automaton"):
            rehost_payload(Opaque())

    def test_non_string_states_are_refused_not_stringified(self):
        hidden = Automaton(
            inputs={"a"},
            outputs=set(),
            transitions=[((0, 0), ("a",), (), (0, 1)), ((0, 1), (), (), (0, 0))],
            initial=[(0, 0)],
            name="tuples",
        )
        with pytest.raises(SynthesisError, match="non-string states"):
            rehost_payload(LegacyComponent(hidden))

    def test_bare_automaton_is_wrapped(self):
        hidden = Automaton(
            inputs={"a"},
            outputs=set(),
            transitions=[("s", ("a",), (), "s")],
            initial=["s"],
            name="tiny",
        )
        payload = rehost_payload(hidden)
        assert payload["name"] == "tiny" and payload["fault"] is None
