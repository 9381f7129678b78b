"""Out-of-process components: wire protocol, supervision, warm spare, parity.

Covers :mod:`repro.legacy.remote` at every layer: frame encoding over
raw pipes, the in-process :class:`ComponentHost` dispatch table, both
decoders under ``hypothesis`` fuzzing, the ``hello`` interface
round-trip (property-based), the real-subprocess
:class:`RemoteComponent` failure taxonomy — crash → respawn, deadline →
SIGKILL, garbage → protocol violation — host-side seed-reproducible
fault injection, the kill ``-9`` soundness guarantee (a murdered host
never manufactures a verdict), the warm spare generic host, and the
acceptance pin: the convoy workload under ``remote=True`` is
bit-identical, record by record, to in-process execution.
"""

import contextlib
import dataclasses
import json
import os
import signal
import subprocess
import sys
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
from repro.legacy import LegacyComponent
from repro.legacy.interface import InterfaceDescription, interface_of
from repro.legacy.remote import (
    MAX_FRAME_BYTES,
    REMOTE_ENV,
    REMOTE_PROTOCOL_VERSION,
    ComponentHost,
    FrameChannel,
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
        host_channel, self.driver, fds = pipe_pair()
        self._fds = list(fds)
        self._ended: list[int] = []  # serve()'s return value, once it returns
        self._thread = threading.Thread(
            target=lambda: self._ended.append(self.host.serve(host_channel)), daemon=True
        )
        self._thread.start()

    def request(self, **payload):
        self.driver.send(payload)
        return self.driver.receive(5.0)

    def write_raw(self, data: bytes) -> None:
        """Put raw bytes on the host's stdin, then hang up (EOF)."""
        os.write(self._fds[1], data)
        os.close(self._fds.pop(1))

    def served(self, timeout: float = 5.0) -> int | None:
        """serve()'s return value; ``None`` if it still runs or raised."""
        self._thread.join(timeout)
        return self._ended[0] if self._ended else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._thread.is_alive() and len(self._fds) == 4:
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

    def test_step_and_reset_mirror_the_counters(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="step", inputs=["ping"])
            assert reply["ok"] and reply["outputs"] == [] and not reply["blocked"]
            assert reply["counters"] == [1, 0, 0]
            reply = harness.request(op="step", inputs=[])
            assert reply["outputs"] == ["pong"]
            reply = harness.request(op="reset")
            assert reply["counters"] == [2, 1, 0] and reply["period"] == 0

    def test_unknown_operation_is_a_protocol_error_reply(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="transmogrify")
            assert not reply["ok"] and reply["error"] == "RemoteProtocolError"
            assert "unknown operation" in reply["message"]

    def test_only_the_six_operations_are_served(self):
        assert REMOTE_PROTOCOL_VERSION == 3
        retired = ("load", "ping", "observe", "instrument", "uninstrument", "arm", "disarm", "reseed")
        with HostHarness(server_component()) as harness:
            for op in retired:
                reply = harness.request(op=op)
                assert reply == {
                    "ok": False,
                    "error": "RemoteProtocolError",
                    "message": f"unknown operation {op!r}",
                }, op

    def test_step_before_load_demands_a_load_frame(self):
        with HostHarness() as harness:
            reply = harness.request(op="step", inputs=[])
            assert not reply["ok"] and "'hello' frame" in reply["message"]

    def test_load_installs_a_component_into_a_generic_host(self):
        load = rehost_payload(server_component())
        with HostHarness() as harness:
            # The version is checked before anything is installed.
            reply = harness.request(op="hello", version=99, **load)
            assert reply["error"] == "RemoteProtocolError" and "version" in reply["message"]
            assert "'hello' frame" in harness.request(op="reset")["message"]
            hello = harness.request(op="hello", version=REMOTE_PROTOCOL_VERSION, **load)
            assert hello["ok"] and hello["counters"] == [0, 0, 0]
            assert hello["interface"]["name"] == "server"
            assert harness.request(op="step", inputs=["ping"])["counters"] == [1, 0, 0]
            # A host serves one component: a second load is refused.
            again = harness.request(op="hello", version=REMOTE_PROTOCOL_VERSION, **load)
            assert again["error"] == "RemoteProtocolError" and "already" in again["message"]

    def test_armed_frame_arms_the_component_for_that_frame_only(self):
        profile = FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0, seed=3)
        with HostHarness(server_component(), fault_profile=profile) as harness:
            assert harness.request(op="hello", version=REMOTE_PROTOCOL_VERSION)["fault_active"]
            reply = harness.request(op="step", inputs=["ping"], armed=True)
            assert reply["error"] == "FaultInjectionError"
            assert reply["fault_counts"]["transient_error"] == 1
            reply = harness.request(op="step", inputs=["ping"], armed=False)
            assert reply["ok"] and reply["fault_counts"]["transient_error"] == 1
            reply = harness.request(op="execute", testcase={"name": "t", "steps": [[[], []]]})
            assert reply["ok"] and reply["fault_counts"]["transient_error"] == 1

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

    def test_a_huge_step_deadline_leaves_the_watchdog_running(self):
        class SlowServer(LegacyComponent):
            def step(self, inputs=()):
                time.sleep(0.1)  # long enough for the watchdog to poll
                return super().step(inputs)

        with HostHarness(server_component(SlowServer)) as harness:
            for limit in (1e300, float("inf")):
                reply = harness.request(
                    op="execute", testcase={"name": "t", "steps": [[[], []]]}, step_deadline=limit
                )
                assert reply["ok"]
            assert harness.host._watchdog._thread.is_alive()

    def test_host_side_replay_divergence_keeps_its_class(self):
        with HostHarness(server_component()) as harness:
            reply = harness.request(op="replay", recording={"component": "other", "steps": []})
            assert reply["error"] == "ReplayError" and "belongs to 'other'" in reply["message"]
            assert reply["counters"] == [0, 0, 0]  # whole-run errors mirror the counters
            assert harness.request(op="reset")["ok"]


#: Frames whose JSON parses but whose fields have the wrong shape.  Each
#: must come back as one RemoteProtocolError reply, never a host crash.
#: A valid hello for a generic host: what the ``hello``/``load`` cases
#: send next to show the host still serves.
GENERIC_HELLO = {
    "op": "hello",
    "version": REMOTE_PROTOCOL_VERSION,
    **rehost_payload(server_component()),
}

MALFORMED_FRAMES = {
    "step-inputs-not-a-list": {"op": "step", "inputs": 5},
    "step-inputs-not-signals": {"op": "step", "inputs": [1, 2]},
    "step-armed-not-a-flag": {"op": "step", "inputs": [], "armed": 1},
    "execute-armed-not-a-flag": {
        "op": "execute",
        "testcase": {"name": "t", "steps": []},
        "armed": "yes",
    },
    "load-without-automaton": {"op": "hello", "version": REMOTE_PROTOCOL_VERSION, "name": "server"},
    "load-garbage-automaton": {
        "op": "hello",
        "version": REMOTE_PROTOCOL_VERSION,
        "automaton": {"states": 3},
        "name": "x",
    },
    "load-garbage-fault": {**GENERIC_HELLO, "fault": {"bogus_rate": 1}},
    "hello-automaton-not-an-object": {**GENERIC_HELLO, "automaton": [["ready"]]},
    "hello-name-not-a-string": {**GENERIC_HELLO, "name": 7},
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
        frame = MALFORMED_FRAMES[case]
        generic = frame["op"] == "hello"  # the component travels to a generic host
        with HostHarness(None if generic else server_component()) as harness:
            reply = harness.request(**frame)
            assert reply["ok"] is False and reply["error"] == "RemoteProtocolError", reply
            # The host survived the frame and still serves.
            assert harness.request(**(GENERIC_HELLO if generic else {"op": "reset"}))["ok"]


# ------------------------------------------------------------ decoder fuzz

FUZZ = hyp_settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: The six operations of ``repro.remote/3``.
OPERATIONS = ("hello", "execute", "replay", "step", "reset", "shutdown")

#: The error classes a host reply may name.
WIRE_ERRORS = {
    "RemoteProtocolError",
    "FaultInjectionError",
    "TestTimeoutError",
    "ReplayError",
    "ModelError",
    "ExecutionError",
}

#: Arbitrary JSON values: the junk a frame field may carry.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

#: A ``step_deadline`` the host watchdog can never fire on (junk, or at
#: least 10^6 s): a watchdog that fires ends this whole process.
UNWATCHED = JSON_VALUES.filter(
    lambda value: isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < 1e6
)

FUZZ_FRAMES = st.fixed_dictionaries(
    {"op": st.sampled_from(OPERATIONS) | JSON_VALUES},
    optional={
        "armed": JSON_VALUES,
        "version": st.just(REMOTE_PROTOCOL_VERSION) | JSON_VALUES,
        "automaton": JSON_VALUES,
        "name": JSON_VALUES,
        "fault": JSON_VALUES,
        "inputs": JSON_VALUES,
        "testcase": st.fixed_dictionaries({"name": st.text(max_size=4)}, optional={"steps": JSON_VALUES})
        | JSON_VALUES,
        "recording": st.fixed_dictionaries({"component": st.just("server")}, optional={"steps": JSON_VALUES})
        | JSON_VALUES,
        "steps": JSON_VALUES,
        "step_timeout": JSON_VALUES,
        "step_deadline": UNWATCHED,
    },
)

#: A frame header: ``None`` for the body's true length, an arbitrary
#: length prefix, or a stray (possibly short) run of header bytes.
HEADERS = st.none() | st.integers(0, 2**32 - 1) | st.binary(max_size=3)
BODIES = st.binary(max_size=64) | JSON_VALUES.map(lambda value: json.dumps(value).encode())


def raw_frame(header, body: bytes) -> bytes:
    if header is None:
        header = len(body)
    if isinstance(header, int):
        header = header.to_bytes(4, "big")
    return header + body


class TestDecoderFuzz:
    @given(header=HEADERS, body=BODIES)
    @FUZZ
    def test_receive_decodes_a_frame_or_raises_one_typed_error(self, header, body):
        left, _, fds = pipe_pair()
        fds = list(fds)
        try:
            os.write(fds[1], raw_frame(header, body))
            os.close(fds.pop(1))  # EOF after the bytes: nothing may wait
            try:
                payload = left.receive(1.0)
            except (RemoteProtocolError, RemoteCrashError):
                return
            assert isinstance(payload, dict)
            if header is None:
                assert payload == json.loads(body)
        finally:
            close_fds(fds)

    @given(frame=FUZZ_FRAMES, generic=st.booleans())
    @FUZZ
    def test_host_answers_every_frame_exactly_once(self, frame, generic):
        op = frame["op"]
        with HostHarness(None if generic else server_component()) as harness:
            reply = harness.request(**frame)
            if op == "shutdown":
                assert reply == {"ok": True} and harness.served() == 0
                return
            if not reply["ok"]:
                assert reply["error"] in WIRE_ERRORS, reply
                if op not in OPERATIONS or generic and op != "hello":
                    assert reply["error"] == "RemoteProtocolError", reply
            watchdog = harness.host._watchdog._thread
            assert watchdog is None or watchdog.is_alive()
            # Exactly one reply: the next frame gets its own answer.
            probe = harness.request(op="hello", version=-1)
            assert "version mismatch" in probe["message"]
            harness.request(op="shutdown")
            assert harness.served() == 0  # no exception escaped serve()

    @given(header=HEADERS, body=BODIES)
    @FUZZ
    def test_host_ends_cleanly_on_raw_bytes(self, header, body):
        with HostHarness(server_component()) as harness:
            harness.write_raw(raw_frame(header, body))
            ended = harness.served()
            assert ended in (0, 2)
            if isinstance(header, int) and not 0 < header <= MAX_FRAME_BYTES:
                assert ended == 2


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
            assert (remote.steps_executed, remote.resets, remote.state_probes) == (
                local.steps_executed,
                local.resets,
                local.state_probes,
            )
            remote.reset(), local.reset()
            assert remote.period == local.period == 0
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

    def test_version_mismatch_fails_construction_fast(self, monkeypatch, spare_module):
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

    @pytest.mark.parametrize("fault_seed", [None, "1", "2", "3"])
    def test_reset_straight_after_interrupt_respawns_quietly(self, monkeypatch, fault_seed):
        # Right after the SIGKILL the host may still poll as running; the
        # reported death must still mean a quiet respawn, not a crash.
        if fault_seed is None:
            monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
        else:
            monkeypatch.setenv(FAULT_SEED_ENV, fault_seed)
        with rehost(server_component(), remote_policy()) as remote:
            for round_ in range(1, 4):
                pid = remote.pid
                remote.interrupt("test-deadline")
                remote.reset()
                assert remote.alive and remote.pid != pid
                assert remote.remote_stats["component_respawns"] == round_

    def test_kill_inside_an_armed_scope_needs_no_reconciliation(self, monkeypatch):
        profile = FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0, seed=3)
        with rehost(server_component(), remote_policy(), fault_profile=profile) as remote:
            with remote.inject_faults():
                with pytest.raises(FaultInjectionError):
                    execute_test(remote, happy_case())
                assert remote.fault_counts["transient_error"] == 1
                os.kill(remote.pid, signal.SIGKILL)
                remote._process.wait(timeout=10)
                sent = count_frames(monkeypatch)
                with pytest.raises(RemoteCrashError, match="between operations"):
                    execute_test(remote, happy_case())
                # The fresh host starts its own tally; the next frame is armed.
                assert remote.fault_counts["transient_error"] == 0
                with pytest.raises(FaultInjectionError):
                    execute_test(remote, happy_case())
                assert remote.fault_counts["transient_error"] == 1
            assert sent == ["hello", "execute"]
            assert execute_test(remote, happy_case()).confirmed  # unarmed again

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


def count_frames(monkeypatch) -> list:
    """The ``op`` of every frame sent from now on, in order."""
    sent = []
    real_send = FrameChannel.send

    def counting_send(channel, payload):
        sent.append(payload.get("op"))
        real_send(channel, payload)

    monkeypatch.setattr(FrameChannel, "send", counting_send)
    return sent


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
        # profile adds retries.
        monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
        sent = count_frames(monkeypatch)
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
        spawn_and_close = ["hello", "shutdown"]
        assert [op for op in sent if op in spawn_and_close] == spawn_and_close
        assert len(sent) <= 2 * tests + len(spawn_and_close)
        assert "step" not in sent

    def test_chaos_sends_only_whole_run_frames(self, monkeypatch):
        # Arming travels in the execute/replay frames: a chaos run sends
        # nothing else, and its records match the in-process chaos run.
        profile = FaultProfile.mild(2)
        local = _convoy(SynthesisSettings(fault_profile=profile)).run()
        sent = count_frames(monkeypatch)
        synthesizer = _convoy(SynthesisSettings(fault_profile=profile, remote=remote_policy()))
        result = synthesizer.run()
        synthesizer.component.close()
        assert set(sent) == {"hello", "execute", "replay", "shutdown"}
        assert sent.count("hello") == 1 + synthesizer.component.remote_stats["component_respawns"]
        assert result.verdict is local.verdict
        assert result.iterations == local.iterations
        assert _model_fingerprint(result) == _model_fingerprint(local)
        assert sum(record.test_retries for record in result.iterations) > 0  # faults fired

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


# ------------------------------------------------------------ warm spare


@pytest.fixture
def spare_module(monkeypatch):
    """:mod:`repro.legacy.remote` with no spare and no generic launch yet."""
    from repro.legacy import remote as remote_module

    remote_module._discard_spare()
    monkeypatch.setattr(remote_module, "_generic_launches", 0)
    yield remote_module
    remote_module._discard_spare()


def spare_process(remote_module):
    assert remote_module._spare is not None
    return remote_module._spare[1]


def launch_twice(stack):
    """Two generic launches: the second starts the first spare."""
    return [stack.enter_context(rehost(server_component(), remote_policy())) for _ in range(2)]


def host_running(pid: int) -> bool:
    """Is ``pid`` a live (not zombie) process?  Reads procfs."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWarmSpare:
    def test_second_and_third_launches_get_distinct_fresh_hosts(self, spare_module):
        with contextlib.ExitStack() as stack:
            first = stack.enter_context(rehost(server_component(), remote_policy()))
            assert spare_module._spare is None  # a one-shot run starts no spare
            second = stack.enter_context(rehost(server_component(), remote_policy()))
            started = spare_process(spare_module)
            third = stack.enter_context(rehost(server_component(), remote_policy()))
            assert third.pid == started.pid  # the spare the second launch started
            hosts = (first, second, third)
            pids = {remote.pid for remote in hosts}
            assert len(pids) == 3 and spare_process(spare_module).pid not in pids
            for remote in hosts:
                assert (remote.period, remote.steps_executed, remote.resets) == (0, 0, 0)
                assert remote.remote_stats["component_spawns"] == 1
            third.step(frozenset({"ping"}))
            assert (second.period, third.period) == (0, 1)

    def test_a_host_is_never_handed_out_twice(self, spare_module):
        with contextlib.ExitStack() as stack:
            launch_twice(stack)
            barrier = threading.Barrier(4)
            leased: list = []

            def launch():
                barrier.wait(timeout=60)
                leased.append(rehost(server_component(), remote_policy()))

            threads = [threading.Thread(target=launch) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            for remote in leased:
                stack.callback(remote.close)
            assert len(leased) == 4
            assert len({remote.pid for remote in leased}) == 4
            assert spare_process(spare_module).pid not in {remote.pid for remote in leased}
            closed = leased[0].pid
            leased[0].close()
            # A closed host is gone for good: the next launch never gets it back.
            assert stack.enter_context(rehost(server_component(), remote_policy())).pid != closed

    @pytest.mark.parametrize("staleness", ["pythonpath-changed", "killed-while-idle"])
    def test_a_stale_spare_means_a_silent_cold_spawn(self, spare_module, monkeypatch, staleness):
        with contextlib.ExitStack() as stack:
            launch_twice(stack)
            stale = spare_process(spare_module)
            if staleness == "killed-while-idle":
                os.kill(stale.pid, signal.SIGKILL)
                # Wait for the exit without reaping it: the launch must reap.
                os.waitid(os.P_PID, stale.pid, os.WEXITED | os.WNOWAIT)
            else:
                extra = str(Path(__file__).resolve().parent)
                paths = [os.environ.get("PYTHONPATH"), extra]
                monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
            log = EventLog()
            remote = stack.enter_context(
                rehost(server_component(), remote_policy(), tracer=Tracer(log))
            )
            assert remote.pid != stale.pid and remote.alive
            assert stale.returncode is not None  # reaped, not left a zombie
            assert log.names() == ["component.spawn"]  # no anomaly, no crash
            assert remote.remote_stats == {
                "component_spawns": 1,
                "component_kills": 0,
                "component_respawns": 0,
            }
            assert outcome_tuple(remote.step(frozenset({"ping"})))[0] == 1

    def test_factory_hosts_never_lease_the_spare(self, spare_module):
        with contextlib.ExitStack() as stack:
            launch_twice(stack)
            spare = spare_process(spare_module)
            served = stack.enter_context(
                RemoteComponent("repro.railcab:correct_rear_shuttle", policy=remote_policy())
            )
            assert served.pid != spare.pid
            assert spare_process(spare_module) is spare and spare.poll() is None

    def test_respawn_leases_the_spare(self, spare_module):
        with contextlib.ExitStack() as stack:
            remote = launch_twice(stack)[1]
            spare = spare_process(spare_module)
            remote.interrupt("test-deadline")
            remote._process.wait(timeout=10)
            remote.reset()  # the kill was reported: a quiet respawn
            assert remote.pid == spare.pid
            assert remote.remote_stats["component_respawns"] == 1

    def test_exit_hook_reaps_the_spare(self, spare_module):
        with contextlib.ExitStack() as stack:
            launch_twice(stack)
        spare = spare_process(spare_module)
        spare_module._discard_spare()
        assert spare_module._spare is None and spare.returncode is not None

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads procfs")
    def test_a_driver_that_rehosts_twice_leaves_no_host_behind(self):
        driver = (
            "from repro import railcab\n"
            "from repro.legacy import remote\n"
            "for _ in range(2):\n"
            "    with remote.rehost(railcab.correct_rear_shuttle(convoy_ticks=1)) as host:\n"
            "        print(host.pid)\n"
            "print(remote._spare[1].pid)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", driver], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        pids = [int(line) for line in done.stdout.split()]
        assert len(set(pids)) == 3
        deadline = time.monotonic() + 10
        while any(host_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(host_running(pid) for pid in pids)


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
