"""Out-of-process legacy components: a supervised subprocess ABI.

Everything else in :mod:`repro.legacy` executes the component *in
process*, which quietly weakens the paper's central premise: the legacy
component is a black box that can genuinely crash, stall, or babble.
This module restores the host/black-box boundary.  A component runs in
its own Python subprocess behind a narrow wire protocol mirroring the
:class:`~repro.legacy.component.LegacyComponent` contract, and the
driver side supervises it with *real* deadlines — a hung host is
``SIGKILL``-ed, not merely abandoned on a thread.

Wire protocol (``repro.remote/3``)
----------------------------------

Frames are length-prefixed JSON: a 4-byte big-endian byte count
followed by one sorted-key compact JSON object (UTF-8).  Requests carry
an ``op``; replies carry ``ok`` plus op-specific fields, and every
reply mirrors the host-side black-box counters so the proxy stays
bit-consistent with an in-process run.  There are six operations:

``hello``
    Protocol-version handshake; returns the host's version, the
    component's structural :class:`~repro.legacy.interface.InterfaceDescription`
    (see :func:`interface_to_wire`), and whether a fault profile is
    armed host-side.  A generic host (``--serve -``) receives its
    component in this frame (a serialized hidden automaton plus an
    optional :class:`~repro.testing.faults.FaultProfile`), so a spawn
    or respawn is one round trip.  A version mismatch fails fast with
    :class:`~repro.errors.RemoteProtocolError`.
``execute`` / ``replay``
    One frame per test execution and per deterministic replay: the host
    runs :func:`~repro.testing.executor.execute_test` or
    :func:`~repro.testing.replay.replay` on its own component and
    answers with the whole outcome, so test semantics have exactly one
    implementation and a test costs one round trip, not one per period.
``step`` / ``reset`` / ``shutdown``
    The executable contract: execute one period, restart, and exit
    cleanly.

Every frame that runs the component (``step``, ``reset``, ``execute``,
``replay``) carries ``armed``: whether the driver is inside an
``inject_faults()`` scope.  The host enters its component's own scope
for that one frame, so seed-driven fault schedules consume RNG draws
bit-identically across the wire and arming costs no frame of its own.

Supervision
-----------

:class:`RemoteComponent` maps real failures onto the existing taxonomy
so :class:`~repro.testing.robust.RobustExecutor` recovers from genuine
crashes exactly like injected ones (Lemma 6 preserved):

* deadline expiry → the host is killed and
  :class:`~repro.errors.TestTimeoutError` is raised (a *preemptive*
  deadline — unlike the in-process cooperative step deadline, which can
  only observe a stall after the step returns).  Inside an ``execute``
  or ``replay`` frame the host's watchdog preempts any step past
  ``step_deadline``; the frame as a whole may take one
  ``step_deadline`` per operation it stands for (``len(steps) + 4``
  for ``execute``, ``2 * len(steps) + 6`` for ``replay``);
* process exit / EOF / broken pipe →
  :class:`~repro.errors.RemoteCrashError` (a
  :class:`~repro.errors.FaultInjectionError`, hence retryable);
* garbage frames (bad length, undecodable JSON, malformed fields) → the
  host is killed and :class:`~repro.errors.RemoteProtocolError` is
  raised.

Every kill, respawn, and protocol violation is published on the
tracer: a ``component.*`` span and event, and (kills and respawns) an
anomaly that makes a flight recorder dump its blackbox.  A dead host
respawns lazily on the next use with one ``hello`` frame; there is no
host-side scope to restore, since arming travels in every frame.

Warm spare host
---------------

Starting a host (interpreter, ``import repro``) costs far more than the
``hello`` handshake.  A generic host (``--serve -``) learns its
component only from the ``hello`` frame, so the driver keeps one such
host started ahead of need: from the second generic launch in a
process onward, each launch leases the spare and at once starts its
replacement, which imports ``repro`` while the loop runs.  A spare is
leased only when the interpreter, the host environment, the stderr
target and the owning process all match the launch; otherwise it is
killed and reaped silently and the launch starts cold.  A host still
serves exactly one :class:`RemoteComponent` and is never reused.

See ``docs/remote.md`` for the frame grammar, the supervision state
machine, and the warm spare's rules and cost.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from collections.abc import Iterable
from itertools import takewhile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..errors import (
    ExecutionError,
    FaultInjectionError,
    ModelError,
    RemoteComponentError,
    RemoteCrashError,
    RemoteProtocolError,
    ReplayError,
    ReproError,
    SynthesisError,
    TestTimeoutError,
)
from .component import LegacyComponent, StepOutcome
from .interface import InterfaceDescription, interface_of

__all__ = [
    "REMOTE_PROTOCOL_VERSION",
    "REMOTE_ENV",
    "MAX_FRAME_BYTES",
    "RemotePolicy",
    "resolve_remote",
    "FrameChannel",
    "ComponentHost",
    "RemoteComponent",
    "rehost",
    "rehost_payload",
    "interface_to_wire",
    "interface_from_wire",
    "main",
]

#: Version tag negotiated by the ``hello`` handshake.  Bump on any
#: breaking change to frame layouts or operation semantics (2: the
#: one-frame ``execute`` and ``replay`` operations; 3: six operations,
#: arming in the frame and the component in ``hello``).
REMOTE_PROTOCOL_VERSION = 3

#: Environment variable turning on out-of-process execution suite-wide
#: (any value other than ``0``/``false``/``no``/``off`` selects the
#: default :class:`RemotePolicy`), mirroring ``REPRO_FAULT_SEED``.
REMOTE_ENV = "REPRO_REMOTE"

#: Upper bound on one frame body.  A length prefix beyond this is a
#: protocol violation, not an allocation request — garbage on the pipe
#: must never make the supervisor allocate gigabytes.
MAX_FRAME_BYTES = 1 << 24

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_HEADER = struct.Struct(">I")

#: The operations that run the component; each frame carries ``armed``.
_RUNS = ("step", "reset", "execute", "replay")


class _DeadlineExpired(Exception):
    """Internal: a frame read ran out of time (converted by the proxy)."""


# --------------------------------------------------------------------- wire


def interface_to_wire(interface: InterfaceDescription) -> dict:
    """Serialize an interface signature for the ``hello`` reply.

    States follow the persistence convention: strings travel losslessly,
    anything else is stringified via ``repr`` — the same rule
    :mod:`repro.persistence` applies, so a rehosted automaton and its
    interface agree on state identity.
    """
    initial = interface.initial_state
    return {
        "name": interface.name,
        "inputs": sorted(interface.inputs),
        "outputs": sorted(interface.outputs),
        "initial_state": initial if isinstance(initial, str) else repr(initial),
        "state_bound": interface.state_bound,
    }


def interface_from_wire(payload: dict) -> InterfaceDescription:
    """Rebuild an :class:`InterfaceDescription` from ``hello`` data.

    Inverse of :func:`interface_to_wire` for every interface whose
    states are strings (which rehosting enforces); validation — signal
    overlap, field types — happens in the dataclass itself.
    """
    if not isinstance(payload, dict):
        raise RemoteProtocolError(
            f"interface payload must be an object, got {type(payload).__name__}"
        )
    missing = {"name", "inputs", "outputs", "initial_state"} - set(payload)
    if missing:
        raise RemoteProtocolError(f"interface payload lacks fields {sorted(missing)}")
    try:
        return InterfaceDescription(
            name=payload["name"],
            inputs=frozenset(payload["inputs"]),
            outputs=frozenset(payload["outputs"]),
            initial_state=payload["initial_state"],
            state_bound=payload.get("state_bound"),
        )
    except (ModelError, TypeError) as error:
        raise RemoteProtocolError(f"malformed interface payload: {error}") from error


class FrameChannel:
    """Length-prefixed JSON frames over a pair of raw file descriptors.

    The read side buffers in user space and waits through ``select``,
    so a deadline bounds every read *and* an EOF (host death) wakes a
    blocked reader immediately.  Used symmetrically: the driver wraps
    the subprocess pipes, the host wraps its own stdio, and tests wrap
    ``os.pipe()`` pairs in process.
    """

    def __init__(self, read_fd: int, write_fd: int):
        self._read_fd = read_fd
        self._write_fd = write_fd
        self._buffer = bytearray()

    def send(self, payload: dict) -> None:
        """Write one frame; a broken pipe means the peer died."""
        body = _ENCODE(payload).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise RemoteProtocolError(
                f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
            )
        data = _HEADER.pack(len(body)) + body
        view = memoryview(data)
        try:
            while view:
                written = os.write(self._write_fd, view)
                view = view[written:]
        except (BrokenPipeError, OSError) as error:
            raise RemoteCrashError(
                f"component host pipe closed while sending {payload.get('op')!r}: {error}"
            ) from None

    def receive(self, timeout: float | None = None) -> dict:
        """Read one frame, waiting at most ``timeout`` seconds.

        Raises :class:`~repro.errors.RemoteCrashError` on EOF,
        :class:`~repro.errors.RemoteProtocolError` on garbage, and the
        internal deadline marker when the timeout expires.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        header = self._take(_HEADER.size, deadline)
        (length,) = _HEADER.unpack(header)
        if length == 0 or length > MAX_FRAME_BYTES:
            raise RemoteProtocolError(
                f"frame length prefix {length} is outside (0, {MAX_FRAME_BYTES}]"
            )
        body = self._take(length, deadline)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise RemoteProtocolError(f"undecodable frame body: {error}") from None
        if not isinstance(payload, dict):
            raise RemoteProtocolError(
                f"frame body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    def _take(self, count: int, deadline: float | None) -> bytes:
        while len(self._buffer) < count:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise _DeadlineExpired()
                ready, _, _ = select.select([self._read_fd], [], [], remaining)
                if not ready:
                    raise _DeadlineExpired()
            chunk = os.read(self._read_fd, 65536)
            if not chunk:
                raise RemoteCrashError("component host closed the pipe (EOF)")
            self._buffer.extend(chunk)
        taken = bytes(self._buffer[:count])
        del self._buffer[:count]
        return taken


# --------------------------------------------------------------------- host

#: Error classes that travel by name, most specific first: the host
#: replies with the first one its exception is an instance of, anything
#: else as plain ``ExecutionError``.
_WIRE_ERRORS = (RemoteProtocolError, FaultInjectionError, TestTimeoutError, ReplayError, ModelError)

_ERROR_CLASSES = {
    error.__name__: error
    for error in (*_WIRE_ERRORS, RemoteCrashError, RemoteComponentError, ExecutionError)
}


def _error_name(error: Exception) -> str:
    for cls in _WIRE_ERRORS:
        if isinstance(error, cls):
            return cls.__name__
    return "ExecutionError"


def _wire_error_class(name: str):
    """The class of an error reply; unknown names degrade to ``ExecutionError``."""
    return _ERROR_CLASSES.get(name, ExecutionError)


def _state_wire(state) -> str:
    return state if isinstance(state, str) else repr(state)


# Field decoders: a frame that parses as JSON can still carry fields of
# the wrong shape, and each must fail as one typed protocol error.


def _signals(value, field: str) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(signal, str) for signal in value):
        raise RemoteProtocolError(f"{field} must be a list of signal names, got {value!r:.80}")
    return frozenset(value)


def _flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise RemoteProtocolError(f"{field} must be a boolean, got {value!r:.80}")
    return value


def _integer(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise RemoteProtocolError(f"{field} must be an integer, got {value!r:.80}")
    return value


def _rows(value, field: str, width: int) -> list:
    """A list of ``width``-element lists: the per-step payloads."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and len(row) == width for row in value
    ):
        raise RemoteProtocolError(f"{field} must be a list of {width}-element lists")
    return value


def _named(payload, key: str, field: str) -> dict:
    if not isinstance(payload, dict) or not isinstance(payload.get(key), str):
        raise RemoteProtocolError(f"{field} must be an object with a string {key!r}")
    return payload


def _testcase_to_wire(testcase) -> dict:
    return {
        "name": testcase.name,
        "steps": [[sorted(step.inputs), sorted(step.expected_outputs)] for step in testcase.steps],
    }


def _testcase_from_wire(payload):
    from ..testing.testcase import TestCase, TestStep

    payload = _named(payload, "name", "execute testcase")
    steps = tuple(
        TestStep(_signals(inputs, "test step inputs"), _signals(expected, "test step outputs"))
        for inputs, expected in _rows(payload.get("steps"), "test steps", 2)
    )
    return TestCase(name=payload["name"], steps=steps)


def _recording_to_wire(recording) -> dict:
    return {
        "component": recording.component,
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
    }


def _recording_from_wire(payload):
    from ..testing.executor import RecordedStep, Recording

    payload = _named(payload, "component", "replay recording")
    steps = tuple(
        RecordedStep(
            period=_integer(period, "recorded period"),
            inputs=_signals(inputs, "recorded inputs"),
            observed_outputs=_signals(observed, "recorded outputs"),
            expected_outputs=_signals(expected, "recorded expected outputs"),
            blocked=_flag(blocked, "recorded blocked"),
        )
        for period, inputs, observed, expected, blocked in _rows(
            payload.get("steps"), "recorded steps", 5
        )
    )
    return Recording(component=payload["component"], steps=steps)


def _seconds(value, field: str) -> float | None:
    """A frame's optional time limit: a positive number or null."""
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0
    ):
        raise RemoteProtocolError(f"{field} must be a positive number or null, got {value!r:.80}")
    return value


class _StepWatchdog:
    """Host-side preemption of a hung step inside a whole-run frame.

    An ``execute`` or ``replay`` frame stands for many steps, so the
    driver's frame deadline alone would let one hung step run for the
    whole frame's budget.  While such a frame runs, a daemon thread
    polls the start time of the running step; once a step is past the
    limit it calls ``expire`` (which replies and ends the host — a hung
    main thread cannot be stopped any other way).  Polling keeps the
    guard off the step path: a guarded step only writes one attribute
    before and after.  A step stuck in C code that holds the GIL starves
    the poller too; the driver's frame deadline is the backstop.
    """

    def __init__(self, expire):
        self._expire = expire
        self._limit: float | None = None
        self._started: float | None = None
        self._frame = threading.Event()
        self._thread: threading.Thread | None = None

    @contextmanager
    def guarding(self, limit: float):
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._watch, name="repro-step-watchdog", daemon=True
            )
            self._thread.start()
        self._limit = limit
        self._frame.set()
        try:
            yield
        finally:
            self._frame.clear()
            self._limit = None

    def step(self, component, inputs):
        self._started = time.monotonic()
        try:
            return component.step(inputs)
        finally:
            self._started = None

    def _watch(self) -> None:
        while True:
            self._frame.wait()
            limit = self._limit
            if limit is None:
                continue
            # Clock first, start second: a start read after ``now`` was
            # set no later than ``now``, so the step was still running
            # then and had run ``now - started`` seconds.
            now = time.monotonic()
            started = self._started
            if started is not None and now - started > limit:
                self._expire(now - started, limit)
                return
            # Capped: ``time.sleep`` overflows on a huge or infinite limit.
            time.sleep(min(limit / 4, 1.0))


class _Watched:
    """Routes a component's steps through a :class:`_StepWatchdog`."""

    __slots__ = ("_component", "_watchdog")

    def __init__(self, component, watchdog: _StepWatchdog):
        self._component = component
        self._watchdog = watchdog

    def __getattr__(self, name: str):
        return getattr(self._component, name)

    def step(self, inputs=()):
        return self._watchdog.step(self._component, inputs)


class ComponentHost:
    """Serves one component over a :class:`FrameChannel`.

    Normally run as ``python -m repro.legacy.remote --serve <factory>``
    in a subprocess, but fully usable in process over ``os.pipe()``
    pairs — which is how the protocol unit tests drive it.

    Parameters
    ----------
    component:
        The component to serve, or ``None`` to receive it in the
        ``hello`` frame (the ``--serve -`` mode used by :func:`rehost`).  A bare
        :class:`~repro.automata.automaton.Automaton` is wrapped in a
        fresh :class:`~repro.legacy.component.LegacyComponent`.
    fault_profile:
        Optional :class:`~repro.testing.faults.FaultProfile` to arm
        *inside the host process*: the component is wrapped in a
        :class:`~repro.testing.faults.FaultyComponent` here, so
        seed-driven crash-resets and hangs hit the real subprocess while
        keeping the exact in-process draw schedule.
    forced_version:
        Overrides the advertised protocol version (handshake tests only).
    """

    def __init__(self, component=None, *, fault_profile=None, forced_version: int | None = None):
        self.component = None
        self.protocol_version = (
            REMOTE_PROTOCOL_VERSION if forced_version is None else forced_version
        )
        # Whole-run frames arm this around every step (see ``serve``).
        self._watchdog: _StepWatchdog | None = None
        if component is not None:
            self._install(component, fault_profile)

    def _install(self, component, fault_profile) -> None:
        from ..obs.tracer import NULL_TRACER
        from ..testing.faults import FaultyComponent

        if not hasattr(component, "step"):
            component = LegacyComponent(component)
        if fault_profile is not None and fault_profile.active:
            # NULL_TRACER explicitly: the host must never pick up the
            # driver's REPRO_TRACE file and corrupt it from a second
            # process.
            component = FaultyComponent.wrap(component, fault_profile, tracer=NULL_TRACER)
        self.component = component

    # ------------------------------------------------------------- serving

    def serve(self, channel: FrameChannel) -> int:
        """Dispatch frames until ``shutdown``, EOF, or a garbage frame.

        A step that outlives the ``step_deadline`` of an ``execute`` or
        ``replay`` frame ends the process (see :meth:`_hung_step`), so
        drive a host in process only with steps that return.
        """
        send_lock = threading.Lock()
        self._watchdog = _StepWatchdog(
            lambda elapsed, limit: self._hung_step(channel, send_lock, elapsed, limit)
        )
        while True:
            try:
                request = channel.receive(None)
            except RemoteCrashError:
                return 0  # driver went away: exit quietly
            except RemoteProtocolError:
                return 2  # desynchronized stream: cannot reply safely
            op = request.get("op")
            if op == "shutdown":
                with send_lock:
                    channel.send({"ok": True})
                return 0
            try:
                reply = self._dispatch(op, request)
            except ReproError as error:
                reply = {"ok": False, "error": _error_name(error), "message": str(error)}
                if op in _RUNS and self.component is not None:
                    # A run may move the counters before it fails.
                    reply.update(self._status())
            with send_lock:
                channel.send(reply)

    def _hung_step(self, channel: FrameChannel, send_lock, elapsed: float, limit: float) -> None:
        """Report a step past its deadline, then end the host process.

        Runs on the watchdog thread while the main thread is stuck in
        the step.  Holding the send lock to the end keeps the main
        thread from replying too, should the step return meanwhile.
        The driver SIGKILLs a host that reports a hung step; should it
        hang up instead, the EOF ends the process all the same.
        """
        with send_lock:
            try:
                channel.send(
                    {
                        "ok": False,
                        "error": "TestTimeoutError",
                        "hung": True,
                        "message": f"a step ran {elapsed:.3f}s, past the "
                        f"{limit:.3f}s step deadline",
                    }
                )
                channel.receive(None)
            finally:
                os._exit(3)

    def _status(self) -> dict:
        component = self.component
        counts = getattr(component, "fault_counts", None)
        return {
            "counters": [
                component.steps_executed,
                component.resets,
                component.state_probes,
            ],
            "period": component.period,
            "fault_active": bool(getattr(component, "fault_injection_active", False)),
            "fault_counts": dict(counts) if counts else None,
        }

    def _require_component(self):
        if self.component is None:
            raise RemoteProtocolError(
                "no component yet: a generic host receives it in the 'hello' frame"
            )
        return self.component

    def _dispatch(self, op, request: dict) -> dict:
        if op == "hello":
            return self._hello(request)
        if op not in _RUNS:
            raise RemoteProtocolError(f"unknown operation {op!r:.80}")
        component = self._require_component()
        arm = getattr(component, "inject_faults", None)
        armed = _flag(request.get("armed", False), f"{op} armed") and arm is not None
        with arm() if armed else nullcontext():
            if op == "execute":
                return self._execute(request)
            if op == "replay":
                return self._replay(request)
            if op == "reset":
                component.reset()
                return {"ok": True, **self._status()}
            outcome = component.step(_signals(request.get("inputs", []), "step inputs"))
        return {
            "ok": True,
            "period": outcome.period,
            "inputs": sorted(outcome.inputs),
            "outputs": sorted(outcome.outputs),
            "blocked": outcome.blocked,
            **self._status(),
        }

    def _hello(self, request: dict) -> dict:
        version = request.get("version")
        if version != self.protocol_version:
            raise RemoteProtocolError(
                f"protocol version mismatch: driver speaks {version!r:.80}, "
                f"host speaks {self.protocol_version}"
            )
        if self.component is None:
            self._load(request)
        elif "automaton" in request:
            raise RemoteProtocolError("this host already serves a component")
        return {
            "ok": True,
            "version": self.protocol_version,
            "interface": interface_to_wire(interface_of(self.component)),
            **self._status(),
        }

    def _load(self, request: dict) -> None:
        """Install the component a generic host's ``hello`` carries."""
        from ..persistence import automaton_from_dict
        from ..testing.faults import FaultProfile

        fault = request.get("fault")
        name = request.get("name")
        if not isinstance(request.get("automaton"), dict) or not isinstance(name, (str, type(None))):
            raise RemoteProtocolError(
                "a generic host's hello frame needs an 'automaton' object and a string 'name'"
            )
        try:
            profile = FaultProfile.from_wire(fault) if fault is not None else None
            hidden = automaton_from_dict(request["automaton"])
        except (ModelError, TypeError, ValueError) as error:
            raise RemoteProtocolError(f"malformed component in hello frame: {error}") from None
        component = LegacyComponent(hidden, name=name if name is not None else hidden.name)
        self._install(component, profile)

    @contextmanager
    def _watched(self, request: dict):
        """The component to run a whole-run frame on.

        With a ``step_deadline`` in the frame (the driver's
        ``RemotePolicy.step_deadline``), every step runs under the
        watchdog, so a hung step is preempted after one deadline as it
        was when every step was its own frame.
        """
        limit = _seconds(request.get("step_deadline"), f"{request['op']} step_deadline")
        if limit is None or self._watchdog is None:
            yield self.component
            return
        with self._watchdog.guarding(limit):
            yield _Watched(self.component, self._watchdog)

    def _execute(self, request: dict) -> dict:
        """Run ``execute_test`` host-side: one frame for the whole test.

        ``step_timeout`` carries the driver's cooperative per-step limit
        (``RetryPolicy.step_timeout``), checked here around every step
        exactly as the in-process proxy checks it.
        """
        from ..testing.executor import execute_test
        from ..testing.robust import _StepDeadline

        testcase = _testcase_from_wire(request.get("testcase"))
        limit = _seconds(request.get("step_timeout"), "execute step_timeout")
        with self._watched(request) as component:
            if limit is not None:
                component = _StepDeadline(component, limit)
            execution = execute_test(component, testcase)
        return {
            "ok": True,
            "verdict": execution.verdict.value,
            "divergence_index": execution.divergence_index,
            "steps": [
                [step.period, sorted(step.observed_outputs), step.blocked]
                for step in execution.recording.steps
            ],
            **self._status(),
        }

    def _replay(self, request: dict) -> dict:
        """Run ``replay`` host-side: one frame for the whole recording."""
        from ..testing.replay import replay

        recording = _recording_from_wire(request.get("recording"))
        with self._watched(request) as component:
            result = replay(component, recording)
        run = result.observed_run
        tail = run.blocked
        return {
            "ok": True,
            "start": _state_wire(run.start),
            "states": [_state_wire(state) for _, state in run.steps],
            "blocked": None if tail is None else [sorted(tail.inputs), sorted(tail.outputs)],
            "probe_effect_free": result.probe_effect_free,
            **self._status(),
        }


# ------------------------------------------------------------------- policy


@dataclass(frozen=True)
class RemotePolicy:
    """Supervision knobs for out-of-process execution.

    Parameters
    ----------
    step_deadline:
        Wall-clock bound per step (seconds).  It bounds each ``step``
        and ``reset`` frame; inside an ``execute``/``replay`` frame the
        host's watchdog applies it to every step, and the whole frame
        gets ``len(steps) + 4`` (``execute``) or ``2 * len(steps) + 6``
        (``replay``) of them as a backstop.  Expiry kills the host
        process and raises :class:`~repro.errors.TestTimeoutError` —
        this is the *real* per-step deadline the in-process path cannot
        enforce.  ``None`` disables it (a truly hung host then blocks
        until killed from outside).
    spawn_timeout:
        Bound on process start plus the ``hello`` handshake.
    """

    step_deadline: float | None = 5.0
    spawn_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.step_deadline is not None and not self.step_deadline > 0:
            raise SynthesisError(
                f"step_deadline must be positive or None, got {self.step_deadline!r}"
            )
        if not self.spawn_timeout > 0:
            raise SynthesisError(f"spawn_timeout must be positive, got {self.spawn_timeout!r}")


def resolve_remote(value) -> RemotePolicy | None:
    """Resolve the ``remote`` knob: policy, boolean, or environment.

    Mirrors the other tri-state knobs: an explicit
    :class:`RemotePolicy` wins, ``True`` selects the defaults,
    ``False`` forces in-process execution, and ``None`` defers to
    :data:`REMOTE_ENV`.
    """
    if isinstance(value, RemotePolicy):
        return value
    if value is True:
        return RemotePolicy()
    if value is False:
        return None
    if value is not None:
        raise SynthesisError(
            f"remote must be a RemotePolicy, a bool, or None, got {type(value).__name__}"
        )
    raw = os.environ.get(REMOTE_ENV, "").strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return None
    if raw in ("1", "true", "yes", "on"):
        return RemotePolicy()
    raise SynthesisError(
        f"{REMOTE_ENV} must be one of 1/true/yes/on or 0/false/no/off, "
        f"got {os.environ[REMOTE_ENV]!r}"
    )


# -------------------------------------------------------------------- hosts


def _popen_host(command: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, close_fds=True
    )


def _stderr_target() -> tuple[int, int] | None:
    """The file a host started now inherits as stderr (device, inode)."""
    try:
        info = os.fstat(2)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def _reap_process(process: subprocess.Popen) -> None:
    """Close a host's pipes and wait for it to exit."""
    for stream in (process.stdin, process.stdout):
        try:
            if stream is not None:
                stream.close()
        except OSError:
            pass
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:  # pragma: no cover - SIGKILL always lands
        pass


def _discard(process: subprocess.Popen) -> None:
    """Kill and reap a spare no launch will use: no error, no anomaly."""
    try:
        process.kill()
    except OSError:  # pragma: no cover - raced with exit
        pass
    _reap_process(process)


#: The warm spare generic host, ``(launch key, process)``, or ``None``.
_spare: tuple[tuple, subprocess.Popen] | None = None
_spare_lock = threading.Lock()
#: Generic launches in this process; the second one starts the first spare.
_generic_launches = 0


def _generic_host(command: list[str], env: dict) -> subprocess.Popen:
    """The process for one generic (``--serve -``) launch.

    From the second generic launch onward, take the warm spare and start
    its replacement at once, so the replacement imports ``repro`` while
    the caller works.  A spare started for another interpreter,
    environment, stderr target or process, or one that has exited, is
    discarded, and the launch starts a host cold.
    """
    global _spare, _generic_launches
    key = (tuple(command), tuple(sorted(env.items())), _stderr_target(), os.getpid())
    with _spare_lock:
        _generic_launches += 1
        spare, _spare = _spare, None
        if _generic_launches >= 2:
            _spare = (key, _popen_host(command, env))
    if spare is not None:
        spare_key, process = spare
        if spare_key == key and process.poll() is None:
            return process
        _discard(process)
    return _popen_host(command, env)


@atexit.register
def _discard_spare() -> None:
    """Kill and reap the spare when the driver exits."""
    global _spare
    with _spare_lock:
        spare, _spare = _spare, None
    if spare is not None:
        _discard(spare[1])


# -------------------------------------------------------------------- proxy


class RemoteComponent:
    """A supervised subprocess proxy satisfying the component contract.

    Spawns ``python -m repro.legacy.remote --serve <spec>`` (or leases
    the warm spare generic ``-`` host, whose ``hello`` frame carries the
    component, and spawns one when none fits), performs the ``hello``
    handshake, and forwards every contract operation — and every whole
    test execution and replay — as one frame round-trip under
    :class:`RemotePolicy` deadlines.  The black-box
    counters (``steps_executed``, ``resets``, ``state_probes``) mirror
    the host's absolute values from every reply.

    Failure mapping and lifecycle events are described in the module
    docstring; ``remote_stats`` carries the proxy-side lifecycle
    counters (``component_spawns`` / ``component_kills`` /
    ``component_respawns``).

    Construction fails fast — :class:`~repro.errors.RemoteProtocolError`
    on a version mismatch, :class:`~repro.errors.TestTimeoutError` when
    the handshake exceeds ``spawn_timeout``.
    """

    def __init__(
        self,
        spec: str | None = None,
        *,
        payload: dict | None = None,
        policy: RemotePolicy | None = None,
        tracer=None,
    ):
        from ..obs.tracer import resolve_tracer

        if (spec is None) == (payload is None):
            raise SynthesisError("exactly one of spec= or payload= must be given")
        self._spec = spec
        self._payload = payload
        self.policy = policy if policy is not None else RemotePolicy()
        self._tracer = resolve_tracer(tracer)
        self._lock = threading.RLock()
        self._process: subprocess.Popen | None = None
        self._channel: FrameChannel | None = None
        self._closed = False
        self._death_reported = False
        self._armed_depth = 0
        # Black-box counters, mirrored from host replies.
        self.steps_executed = 0
        self.resets = 0
        self.state_probes = 0
        self._period = 0
        self._fault_active = False
        self._fault_counts: dict | None = None
        self.remote_stats = {
            "component_spawns": 0,
            "component_kills": 0,
            "component_respawns": 0,
        }
        self.name = payload.get("name", spec) if payload is not None else spec
        self._launch(respawn=False)

    # ------------------------------------------------------------ lifecycle

    def _spawn_process(self) -> None:
        command = [sys.executable, "-m", "repro.legacy.remote", "--serve", self._spec or "-"]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        # Factory-served hosts know their component at start: always cold.
        spawn = _popen_host if self._spec is not None else _generic_host
        self._process = spawn(command, env)
        self._channel = FrameChannel(
            self._process.stdout.fileno(), self._process.stdin.fileno()
        )

    def _launch(self, *, respawn: bool) -> None:
        span = "component.respawn" if respawn else "component.spawn"
        with self._tracer.span(span, component=str(self.name)):
            self._spawn_process()
            hello = self._request(
                {"op": "hello", "version": REMOTE_PROTOCOL_VERSION, **(self._payload or {})},
                timeout=self.policy.spawn_timeout,
            )
        if hello.get("version") != REMOTE_PROTOCOL_VERSION:
            message = (
                f"component host {self.name!r} speaks protocol "
                f"{hello.get('version')!r}, driver speaks {REMOTE_PROTOCOL_VERSION}"
            )
            self._kill("protocol-version", message=message)
            raise RemoteProtocolError(message)
        interface = interface_from_wire(hello["interface"])
        self.name = interface.name
        self.inputs = interface.inputs
        self.outputs = interface.outputs
        self.initial_state = interface.initial_state
        self.state_bound = interface.state_bound
        self._fault_active = bool(hello.get("fault_active", False))
        if respawn:
            self.remote_stats["component_respawns"] += 1
            self._tracer.event("component.respawn", component=str(self.name), pid=self.pid)
            self._tracer.anomaly("remote_respawn", component=str(self.name), pid=self.pid)
        else:
            self.remote_stats["component_spawns"] += 1
            self._tracer.event("component.spawn", component=str(self.name), pid=self.pid)
        self._death_reported = False

    def _reap(self) -> None:
        process = self._process
        self._process = None
        self._channel = None
        if process is not None:
            _reap_process(process)

    def _kill(self, reason: str, **context) -> None:
        """SIGKILL the host (if alive), reap it, and record the anomaly."""
        process = self._process
        if process is not None and process.poll() is None:
            self._publish_kill(process.kill, reason, **context)
        self._reap()

    def _publish_kill(self, kill, reason: str, **context) -> bool:
        """SIGKILL the host via ``kill`` and publish it once.

        One ``component.kill`` span, event and ``remote_kill`` anomaly;
        ``False`` (nothing published) when the host had already exited.
        """
        name = str(self.name)
        with self._tracer.span("component.kill", component=name, reason=reason):
            try:
                kill()
            except OSError:  # pragma: no cover - raced with exit
                return False
        self.remote_stats["component_kills"] += 1
        self._tracer.event("component.kill", component=name, reason=reason)
        self._tracer.anomaly("remote_kill", component=name, reason=reason, **context)
        return True

    def interrupt(self, reason: str = "test-deadline") -> None:
        """Hard-kill the host from *outside* the proxy's lock.

        Called by :class:`~repro.testing.robust.RobustExecutor` when the
        per-test deadline expires while a worker thread is still blocked
        on a frame read: the SIGKILL turns that blocked read into an
        immediate EOF, so the deadline genuinely preempts the process
        instead of abandoning a thread.
        """
        process = self._process
        if process is not None and process.poll() is None:
            if self._publish_kill(partial(os.kill, process.pid, signal.SIGKILL), reason):
                self._death_reported = True

    def close(self) -> None:
        """Shut the host down (politely, then by force) and seal the proxy."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            process = self._process
            if process is not None and process.poll() is None and self._channel is not None:
                try:
                    self._channel.send({"op": "shutdown"})
                    self._channel.receive(1.0)
                except (RemoteComponentError, _DeadlineExpired, OSError):
                    try:
                        process.kill()
                    except OSError:  # pragma: no cover - raced with exit
                        pass
            self._reap()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "RemoteComponent":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def pid(self) -> int | None:
        """The host process id, or ``None`` when no process is alive."""
        return self._process.pid if self._process is not None else None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    # --------------------------------------------------------------- framing

    def _ensure_alive(self) -> None:
        if self._closed:
            raise ExecutionError(f"remote component {self.name!r} is closed")
        # A reported death is final even before the SIGKILL lands (right
        # after interrupt() the host may still poll as running): reaping
        # waits for its exit, and the respawn is quiet.
        reported = self._death_reported
        if reported or self._process is None or self._process.poll() is not None:
            exit_code = self._process.poll() if self._process is not None else None
            self._reap()
            self._launch(respawn=True)
            if not reported:
                # The host died *between* operations — silently carrying
                # on with the fresh (reset) instance could hand a
                # mid-test caller outputs from the wrong state, so the
                # death must surface as a retryable fault.  Deaths
                # already reported (deadline kill, mid-request crash)
                # respawn quietly: their exception did the surfacing.
                raise RemoteCrashError(
                    f"component host {self.name!r} died between operations "
                    f"(exit code {exit_code}); a fresh host is up for the retry"
                )

    def _request(self, payload: dict, *, timeout: float | None) -> dict:
        """One raw frame round-trip on the current process (no respawn)."""
        channel = self._channel
        op = payload.get("op")
        try:
            channel.send(payload)
            reply = channel.receive(timeout)
        except _DeadlineExpired:
            message = (
                f"remote {op!r} on {self.name!r} exceeded the "
                f"{timeout:.3f}s deadline; host (pid {self.pid}) killed"
            )
            self._kill("step-deadline", op=op, deadline=timeout)
            self._death_reported = True
            raise TestTimeoutError(message) from None
        except RemoteCrashError as error:
            exit_code = self._process.poll() if self._process is not None else None
            self._tracer.anomaly(
                "remote_crash", component=str(self.name), op=op, exit_code=exit_code
            )
            self._reap()
            self._death_reported = True
            raise RemoteCrashError(
                f"component host {self.name!r} died during {op!r} "
                f"(exit code {exit_code}): {error}"
            ) from None
        except RemoteProtocolError as error:
            raise self._violation(op, str(error)) from None
        self._absorb(reply)
        if not reply.get("ok"):
            name = reply.get("error", "ExecutionError")
            message = reply.get("message", f"remote {op!r} failed")
            if name == "RemoteProtocolError":
                raise self._violation(op, message)
            if reply.get("hung"):
                # The host's step watchdog fired: its main thread is
                # stuck in the step, so the host goes as on a deadline.
                message = f"remote {op!r} on {self.name!r}: {message}; host (pid {self.pid}) killed"
                self._kill("step-deadline", op=op, deadline=self.policy.step_deadline)
                self._death_reported = True
                raise TestTimeoutError(message)
            raise _wire_error_class(name)(message)
        return reply

    def _violation(self, op, detail: str) -> RemoteProtocolError:
        """Kill a host that spoke the protocol wrong; returns the error to raise.

        Not retryable: the death is reported by the raise, so the next
        use respawns quietly.
        """
        self._tracer.event("component.violation", component=str(self.name), op=op)
        self._kill("protocol-violation", op=op, detail=detail)
        self._death_reported = True
        return RemoteProtocolError(detail)

    def _absorb(self, reply: dict) -> None:
        counters = reply.get("counters")
        if counters is not None:
            self.steps_executed, self.resets, self.state_probes = counters
        if "period" in reply:
            self._period = reply["period"]
        if "fault_counts" in reply and reply["fault_counts"] is not None:
            self._fault_counts = dict(reply["fault_counts"])

    def _call(self, payload: dict, *, timeout: float | None = None) -> dict:
        """One frame that runs the component, respawning a dead host first."""
        with self._lock:
            self._ensure_alive()
            payload["armed"] = self._armed_depth > 0 and self._fault_active
            limit = timeout if timeout is not None else self.policy.step_deadline
            return self._request(payload, timeout=limit)

    def _whole_run_call(self, payload: dict, operations: int, decode):
        """One ``execute``/``replay`` frame, decoded into its result.

        The host preempts any single step past ``step_deadline`` (the
        limit travels in the frame); the frame as a whole may take one
        ``step_deadline`` per operation it replaces, a backstop for
        stalls the host cannot catch.  A reply of the wrong shape is a
        protocol violation.
        """
        step = self.policy.step_deadline
        payload["step_deadline"] = step
        with self._lock:
            reply = self._call(payload, timeout=None if step is None else operations * step)
            try:
                return decode(reply)
            except (RemoteProtocolError, KeyError, TypeError, ValueError) as error:
                raise self._violation(
                    payload["op"], f"malformed {payload['op']!r} reply: {error}"
                ) from None

    # -------------------------------------------------------------- contract

    def step(self, inputs: Iterable[str] = ()) -> StepOutcome:
        offered = inputs if type(inputs) is frozenset else frozenset(inputs)
        reply = self._call({"op": "step", "inputs": sorted(offered)})
        return StepOutcome(
            reply["period"],
            frozenset(reply["inputs"]),
            frozenset(reply["outputs"]),
            reply["blocked"],
        )

    def reset(self) -> None:
        self._call({"op": "reset"})

    def execute_in_host(self, testcase, *, port: str = "port", step_timeout: float | None = None):
        """:func:`~repro.testing.executor.execute_test` in one frame.

        The host runs the same function on its own component (under
        chaos, the fault-injecting wrapper, so the fault draw schedule
        is unchanged); ``execute_test`` hands off here.  ``step_timeout``
        is ``RetryPolicy.step_timeout``, enforced host-side per step.
        """
        from ..testing.executor import RecordedStep, Recording, TestExecution, TestVerdict

        def decode(reply):
            rows = _rows(reply["steps"], "executed steps", 3)
            verdict = TestVerdict(reply["verdict"])
            index = reply["divergence_index"]
            if index is not None:
                index = _integer(index, "divergence index")
            # execute_test runs every step of a confirmed test and stops
            # at the diverging or blocked one; only a blocked test's last
            # step is blocked.
            ran = len(testcase.steps) if index is None else index + 1
            blocked = [False] * len(rows)
            if verdict is TestVerdict.BLOCKED and rows:
                blocked[-1] = True
            if (
                (index is None) != (verdict is TestVerdict.CONFIRMED)
                or len(rows) != ran
                or ran > len(testcase.steps)
                or [row[2] for row in rows] != blocked
            ):
                raise RemoteProtocolError(
                    f"{len(rows)} executed steps, verdict {verdict.value!r} and divergence "
                    f"index {index!r} do not fit a {len(testcase.steps)}-step test"
                )
            recorded = tuple(
                RecordedStep(
                    period=_integer(period, "executed period"),
                    inputs=step.inputs,
                    observed_outputs=_signals(outputs, "executed outputs"),
                    expected_outputs=step.expected_outputs,
                    blocked=stop,
                )
                for step, (period, outputs, stop) in zip(testcase.steps, rows)
            )
            return TestExecution(
                testcase=testcase,
                verdict=verdict,
                divergence_index=index,
                recording=Recording(component=self.name, steps=recorded),
                port=port,
            )

        payload = {
            "op": "execute",
            "testcase": _testcase_to_wire(testcase),
            "step_timeout": step_timeout,
        }
        # Backstop: one deadline each for reset, instrument, the steps,
        # uninstrument and reset.
        return self._whole_run_call(payload, len(testcase.steps) + 4, decode)

    def replay_in_host(self, recording, *, port: str = "port"):
        """:func:`~repro.testing.replay.replay` in one frame (``replay`` hands off here)."""
        from ..automata.interaction import Interaction
        from ..automata.runs import Run
        from ..testing.replay import ReplayResult

        # replay stops at the first blocked record: the records before it
        # each add a state, the blocked one becomes the run's tail.
        reacted = list(takewhile(lambda record: not record.blocked, recording.steps))
        refused = recording.steps[len(reacted)] if len(reacted) < len(recording.steps) else None
        expected_tail = (
            None if refused is None else Interaction(refused.inputs, refused.expected_outputs)
        )

        def decode(reply):
            start, states, tail = reply["start"], reply["states"], reply["blocked"]
            if tail is not None:
                tail = Interaction(
                    _signals(tail[0], "blocked inputs"), _signals(tail[1], "blocked outputs")
                )
            if (
                not isinstance(states, list)
                or len(states) != len(reacted)
                or not all(isinstance(state, str) for state in (start, *states))
                or tail != expected_tail
            ):
                raise RemoteProtocolError(
                    f"replayed states {states!r:.80} and blocked tail {tail} do not fit "
                    f"{len(reacted)} recorded reactions and blocked tail {expected_tail}"
                )
            run = Run(
                start,
                tuple(
                    # The host checked each replayed reaction against the record.
                    (Interaction(record.inputs, record.observed_outputs), state)
                    for record, state in zip(reacted, states)
                ),
                blocked=tail,
            )
            return ReplayResult(
                component=self.name,
                observed_run=run,
                probe_effect_free=_flag(reply["probe_effect_free"], "probe_effect_free"),
                port=port,
            )

        payload = {"op": "replay", "recording": _recording_to_wire(recording)}
        # Backstop: the same, plus the start probe, a probe per step and
        # the probe-effect read.
        return self._whole_run_call(payload, 2 * len(recording.steps) + 6, decode)

    @property
    def period(self) -> int:
        """The host's period as of the last reply (skew included)."""
        return self._period

    # ----------------------------------------------------------------- chaos

    @property
    def fault_injection_active(self) -> bool:
        """Is a fault profile armed *host-side*?

        Mirrors the host's answer from the handshake, so the fault-free
        remote path keeps validation off and replay/test counters
        bit-identical to in-process execution.  A genuine crash still
        degrades soundly: it raises (aborting the attempt) instead of
        ever producing a verdict.
        """
        return self._fault_active

    @contextmanager
    def inject_faults(self):
        """Arm fault injection for the scope, without a frame of its own.

        Every frame sent inside the scope carries ``armed``, and the
        host arms its own component for that frame only; a respawned
        host therefore needs no arming replayed onto it.
        """
        with self._lock:
            self._armed_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._armed_depth -= 1

    @property
    def fault_counts(self) -> dict | None:
        """Host-side fault tallies as of the last reply."""
        return self._fault_counts

    @property
    def faults_injected(self) -> int:
        counts = self.fault_counts
        return sum(counts.values()) if counts else 0

    def __repr__(self) -> str:
        return (
            f"RemoteComponent(name={self.name!r}, pid={self.pid}, "
            f"alive={self.alive}, fault_active={self._fault_active})"
        )


# ------------------------------------------------------------------ rehost


def rehost_payload(component, fault_profile=None) -> dict:
    """The ``hello`` fields shipping an in-process component to a host.

    Unwraps a :class:`~repro.testing.faults.FaultyComponent` (its
    profile moves to the host so injection happens inside the real
    process), serializes the hidden automaton via
    :mod:`repro.persistence`, and refuses components whose states are
    not strings — stringifying them would silently change the learned
    state identities, and refusing beats diverging.
    """
    from ..persistence import automaton_to_dict
    from ..testing.faults import FaultyComponent

    if isinstance(component, FaultyComponent):
        if fault_profile is None:
            fault_profile = component.profile
        component = component.inner
    if not hasattr(component, "step"):
        component = LegacyComponent(component)
    hidden = getattr(component, "_hidden", None)
    if hidden is None:
        raise SynthesisError(
            f"component {getattr(component, 'name', component)!r} is not backed by a "
            "hidden automaton and cannot be rehosted; serve custom components "
            "directly via ComponentHost / --serve <factory>"
        )
    non_str = sorted(repr(state) for state in hidden.states if not isinstance(state, str))
    if non_str:
        raise SynthesisError(
            f"component {component.name!r} has non-string states {non_str[:3]}; "
            "the wire protocol would stringify them and change learned state "
            "identities — rename the states or serve via a factory spec"
        )
    fault = (
        fault_profile.as_wire()
        if fault_profile is not None and fault_profile.active
        else None
    )
    return {
        "automaton": automaton_to_dict(hidden),
        "name": component.name,
        "fault": fault,
    }


def rehost(
    component,
    policy: RemotePolicy | None = None,
    *,
    fault_profile=None,
    tracer=None,
) -> RemoteComponent:
    """Wrap an in-process component as a supervised subprocess.

    The demo adapter behind ``SynthesisSettings(remote=...)``: the
    component's hidden automaton travels to a generic host in its
    ``hello`` frame and the returned :class:`RemoteComponent` satisfies
    the same contract, with verdicts bit-identical to in-process
    execution on fault-free runs.
    """
    return RemoteComponent(
        payload=rehost_payload(component, fault_profile),
        policy=policy,
        tracer=tracer,
    )


# --------------------------------------------------------------------- main


def _resolve_factory(spec: str):
    """Import ``module:attr`` and call it if callable."""
    import importlib

    module_name, _, attribute = spec.partition(":")
    if not module_name or not attribute:
        raise SynthesisError(
            f"factory spec must look like 'package.module:callable', got {spec!r}"
        )
    module = importlib.import_module(module_name)
    target = module
    for part in attribute.split("."):
        target = getattr(target, part)
    return target() if callable(target) else target


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.legacy.remote --serve <factory>`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.legacy.remote",
        description="Serve a legacy component over the repro.remote/3 frame protocol.",
    )
    parser.add_argument(
        "--serve",
        required=True,
        metavar="FACTORY",
        help="'package.module:callable' producing a component (or an automaton), "
        "or '-' to receive it in the hello frame on stdin",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="arm the mild chaos profile inside this host process "
        "(REPRO_FAULT_SEED works without the flag; an explicit fault "
        "profile in a hello frame wins over both)",
    )
    parser.add_argument(
        "--force-protocol-version", type=int, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    # Claim the frame channel before any user code can print: stray
    # stdout writes (a chatty factory, a debug print) must go to stderr,
    # never corrupt the frame stream.
    frame_out = os.dup(sys.stdout.fileno())
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    channel = FrameChannel(sys.stdin.fileno(), frame_out)

    component = None
    profile = None
    if args.serve != "-":
        from ..testing.faults import FaultProfile

        component = _resolve_factory(args.serve)
        if args.fault_seed is not None:
            profile = FaultProfile.mild(args.fault_seed)
        else:
            profile = FaultProfile.from_env()
    host = ComponentHost(
        component,
        fault_profile=profile,
        forced_version=args.force_protocol_version,
    )
    return host.serve(channel)


if __name__ == "__main__":
    sys.exit(main())
