"""Deterministic, seed-driven fault injection for the testing subsystem.

The paper's record/replay scheme (§4.2, §5) exists precisely because
live execution of a real component is unreliable: probes cost time,
processes crash, messages get lost.  This module models that
unreliability *reproducibly* so the robust executor
(:mod:`repro.testing.robust`) and the synthesis loop's degraded-verdict
handling can be exercised — and any CI failure replayed bit-for-bit
from its seed.

Fault taxonomy (:class:`FaultKind`):

``TRANSIENT_ERROR``
    A live step raises :class:`~repro.errors.FaultInjectionError`
    before executing — the harness lost contact for one period.
``CRASH_RESET``
    The component crashes and restarts: its hidden state is lost (it is
    reset to the initial state) and the step raises
    :class:`~repro.errors.FaultInjectionError`.
``HANG``
    A live step stalls for :attr:`FaultProfile.hang_seconds` before
    reacting; a per-step deadline (see
    :class:`~repro.testing.robust.RetryPolicy`) converts the stall into
    :class:`~repro.errors.TestTimeoutError`.
``DROPPED_OUTPUT``
    One output message of a live reaction is lost before the monitor
    sees it — the recording is silently corrupted.
``SPURIOUS_OUTPUT``
    A spurious output message is observed that the component never
    produced — the recording is silently corrupted.
``REPLAY_FLIP``
    Offline replay nondeterminism: one replayed output is flipped, so
    :func:`repro.testing.replay.replay` raises
    :class:`~repro.errors.ReplayError` on a perfectly good recording.

Determinism: each armed step consumes a *fixed* number of RNG draws
(one per live fault kind, or one for the replay kind), in a fixed
order, from a ``random.Random(profile.seed)`` private to the wrapper.
Two runs with the same seed and the same step sequence therefore
inject exactly the same faults — the whole chaos CI matrix is
replayable.

Faults fire only while the wrapper is *armed* (inside
:meth:`FaultyComponent.inject_faults`, entered by the robust executor
around supervised executions and validation replays).  Unsupervised
uses — warm-start knowledge validation, baselines, direct harness
calls — see the wrapped component's exact behavior, so fault recovery
always happens under the one layer that can recover.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from enum import Enum

from ..errors import FaultInjectionError, ModelError
from ..legacy.component import LegacyComponent, StepOutcome

__all__ = [
    "FAULT_SEED_ENV",
    "FaultKind",
    "FaultProfile",
    "FaultyComponent",
]

#: Environment variable activating the mild fault profile suite-wide:
#: ``REPRO_FAULT_SEED=2`` wraps every synthesizer's component in a
#: :class:`FaultyComponent` seeded with 2 (used by the chaos CI job).
FAULT_SEED_ENV = "REPRO_FAULT_SEED"


class FaultKind(Enum):
    """The injectable failure modes of the harness."""

    TRANSIENT_ERROR = "transient_error"
    CRASH_RESET = "crash_reset"
    HANG = "hang"
    DROPPED_OUTPUT = "dropped_output"
    SPURIOUS_OUTPUT = "spurious_output"
    REPLAY_FLIP = "replay_flip"


#: Draw order of the live fault kinds — fixed so every armed live step
#: consumes exactly ``len(_LIVE_KINDS)`` RNG draws regardless of which
#: fault (if any) fires.
_LIVE_KINDS = (
    FaultKind.TRANSIENT_ERROR,
    FaultKind.CRASH_RESET,
    FaultKind.HANG,
    FaultKind.DROPPED_OUTPUT,
    FaultKind.SPURIOUS_OUTPUT,
)

_RATE_FIELDS = {
    FaultKind.TRANSIENT_ERROR: "transient_error_rate",
    FaultKind.CRASH_RESET: "crash_reset_rate",
    FaultKind.HANG: "hang_rate",
    FaultKind.DROPPED_OUTPUT: "dropped_output_rate",
    FaultKind.SPURIOUS_OUTPUT: "spurious_output_rate",
    FaultKind.REPLAY_FLIP: "replay_flip_rate",
}


@dataclass(frozen=True)
class FaultProfile:
    """Per-step fault probabilities, fully determined by ``seed``.

    All rates are probabilities in ``[0, 1]`` applied independently per
    executed period (live kinds) or per replayed period
    (``replay_flip_rate``).  A profile with every rate at zero is
    *inactive*: the wrapper is then a transparent proxy.
    """

    seed: int = 0
    transient_error_rate: float = 0.0
    crash_reset_rate: float = 0.0
    hang_rate: float = 0.0
    dropped_output_rate: float = 0.0
    spurious_output_rate: float = 0.0
    replay_flip_rate: float = 0.0
    #: How long an injected hang stalls a live step (seconds).  Kept
    #: small so chaos suites stay fast; pair with
    #: ``RetryPolicy.step_timeout`` below it to surface timeouts.
    hang_seconds: float = 0.005

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ModelError(f"fault seed must be an integer, got {self.seed!r}")
        for field_info in fields(self):
            if not field_info.name.endswith("_rate"):
                continue
            value = getattr(self, field_info.name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ModelError(
                    f"{field_info.name} must be a probability in [0, 1], got {value!r}"
                )
        if self.hang_seconds < 0:
            raise ModelError(f"hang_seconds must be non-negative, got {self.hang_seconds!r}")

    # ---------------------------------------------------------- constructors

    @classmethod
    def mild(cls, seed: int = 0) -> "FaultProfile":
        """Low per-step rates: occasional retries, no lost verdicts.

        This is the profile behind :data:`FAULT_SEED_ENV` — gentle
        enough that a bounded retry budget recovers every execution, so
        final verdicts stay bit-identical to the fault-free run.
        """
        return cls(
            seed=seed,
            transient_error_rate=0.01,
            crash_reset_rate=0.004,
            hang_rate=0.0,
            dropped_output_rate=0.004,
            spurious_output_rate=0.004,
            replay_flip_rate=0.006,
        )

    @classmethod
    def hostile(cls, seed: int = 0) -> "FaultProfile":
        """High rates for exercising quarantine/INCONCLUSIVE paths."""
        return cls(
            seed=seed,
            transient_error_rate=0.25,
            crash_reset_rate=0.1,
            hang_rate=0.0,
            dropped_output_rate=0.15,
            spurious_output_rate=0.15,
            replay_flip_rate=0.2,
        )

    @classmethod
    def single(cls, kind: FaultKind, rate: float, *, seed: int = 0) -> "FaultProfile":
        """A profile injecting exactly one fault kind (for matrix tests)."""
        return replace(cls(seed=seed), **{_RATE_FIELDS[kind]: rate})

    @classmethod
    def from_env(cls) -> "FaultProfile | None":
        """The mild profile seeded from :data:`FAULT_SEED_ENV`, or ``None``."""
        raw = os.environ.get(FAULT_SEED_ENV, "").strip()
        if not raw:
            return None
        try:
            seed = int(raw)
        except ValueError:
            raise ModelError(
                f"{FAULT_SEED_ENV} must be an integer seed, got {raw!r}"
            ) from None
        return cls.mild(seed)

    # ------------------------------------------------------------------ wire

    def as_wire(self) -> dict:
        """A JSON-safe dict shipping the profile to a component host.

        Every field is a scalar, so the representation is lossless and
        the host-side schedule (rebuilt via :meth:`from_wire` with the
        same seed) consumes RNG draws bit-identically to an in-process
        :class:`FaultyComponent` — crash-resets and hangs injected
        *inside* the subprocess stay seed-reproducible across the wire.
        """
        return {field_info.name: getattr(self, field_info.name) for field_info in fields(self)}

    @classmethod
    def from_wire(cls, payload: dict) -> "FaultProfile":
        """Rebuild a profile from :meth:`as_wire` output (validating)."""
        if not isinstance(payload, dict):
            raise ModelError(f"fault profile payload must be a dict, got {type(payload).__name__}")
        known = {field_info.name for field_info in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ModelError(f"unknown fault profile fields {sorted(unknown)}")
        return cls(**payload)

    # ------------------------------------------------------------- inspection

    def rate_of(self, kind: FaultKind) -> float:
        return getattr(self, _RATE_FIELDS[kind])

    @property
    def active(self) -> bool:
        """Does any fault kind have a nonzero probability?"""
        return any(self.rate_of(kind) > 0.0 for kind in FaultKind)


class FaultyComponent:
    """A fault-injecting wrapper around a :class:`LegacyComponent`.

    Delegates every attribute to the wrapped component — counters
    (``steps_executed``, ``resets``, ``state_probes``), instrumentation
    scopes, and the structural interface all accrue on the *inner*
    component, so existing black-box-discipline assertions keep
    working.  Only :meth:`step` is intercepted, and only while armed
    (inside :meth:`inject_faults`).

    Parameters
    ----------
    inner:
        The component to wrap (an :class:`~repro.automata.automaton.Automaton`
        is accepted and wrapped in a fresh :class:`LegacyComponent`).
    profile:
        The frozen fault probabilities; the private RNG is seeded from
        ``profile.seed`` at construction and on :meth:`reseed`.
    tracer:
        The observability stream (:class:`repro.obs.Tracer`); every
        fired fault publishes a ``fault.inject`` span carrying the fault
        kind.  ``None`` resolves the environment's stream.
    """

    def __init__(self, inner, profile: FaultProfile, *, tracer=None):
        if not isinstance(profile, FaultProfile):
            raise ModelError(f"profile must be a FaultProfile, got {type(profile).__name__}")
        if not hasattr(inner, "step"):
            inner = LegacyComponent(inner)
        object.__setattr__(self, "_inner", inner)
        self.profile = profile
        self._rng = random.Random(profile.seed)
        self._armed = 0
        self._sleep = time.sleep
        self.fault_counts: dict[str, int] = {kind.value: 0 for kind in FaultKind}
        from ..obs.tracer import resolve_tracer

        self._tracer = resolve_tracer(tracer)

    @classmethod
    def wrap(cls, component, profile: FaultProfile, *, tracer=None) -> "FaultyComponent":
        """Wrap ``component`` (idempotent on an already-faulty one)."""
        if isinstance(component, FaultyComponent):
            return component
        return cls(component, profile, tracer=tracer)

    # ------------------------------------------------------------ delegation

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value) -> None:
        # The wrapper owns its own small state; everything else (e.g. a
        # test poking ``component.resets = 0``) reaches the inner one.
        if name in (
            "profile",
            "_rng",
            "_armed",
            "_sleep",
            "_tracer",
            "fault_counts",
        ):
            object.__setattr__(self, name, value)
        else:
            setattr(self._inner, name, value)

    def __repr__(self) -> str:
        return f"FaultyComponent({self._inner!r}, seed={self.profile.seed})"

    @property
    def inner(self) -> LegacyComponent:
        """The wrapped component (for assertions on its counters)."""
        return self._inner

    # --------------------------------------------------------------- arming

    @contextmanager
    def inject_faults(self):
        """Arm fault injection for the duration of the scope.

        Entered by :class:`~repro.testing.robust.RobustExecutor` around
        every supervised execution and validation replay.  Unarmed, the
        wrapper is transparent — knowledge validation, probing helpers,
        and direct callers never see injected faults.
        """
        self._armed += 1
        try:
            yield self
        finally:
            self._armed -= 1

    @property
    def fault_injection_active(self) -> bool:
        """Would an armed scope actually inject anything?"""
        return self.profile.active

    @property
    def faults_injected(self) -> int:
        """Total faults fired so far (all kinds)."""
        return sum(self.fault_counts.values())

    def reseed(self, seed: int | None = None) -> None:
        """Restart the fault schedule (defaults to the profile's seed)."""
        self._rng.seed(self.profile.seed if seed is None else seed)

    # ------------------------------------------------------------- execution

    def _fire(self, kind: FaultKind) -> None:
        self.fault_counts[kind.value] += 1
        with self._tracer.span("fault.inject", kind=kind.value):
            pass

    def step(self, inputs: Iterable[str] = ()) -> StepOutcome:
        inner = self._inner
        if not self._armed or not self.profile.active:
            return inner.step(inputs)
        profile = self.profile
        rng = self._rng
        if inner._live:
            # Fixed draw schedule: one draw per live kind, always.
            draws = {kind: rng.random() for kind in _LIVE_KINDS}
            if draws[FaultKind.TRANSIENT_ERROR] < profile.transient_error_rate:
                self._fire(FaultKind.TRANSIENT_ERROR)
                raise FaultInjectionError(
                    f"injected transient error on {inner.name!r} "
                    f"at period {inner._period}"
                )
            if draws[FaultKind.CRASH_RESET] < profile.crash_reset_rate:
                self._fire(FaultKind.CRASH_RESET)
                inner.reset()  # the crash loses the component state
                raise FaultInjectionError(
                    f"injected crash on {inner.name!r}: component restarted "
                    "in its initial state"
                )
            if draws[FaultKind.HANG] < profile.hang_rate and profile.hang_seconds > 0:
                self._fire(FaultKind.HANG)
                self._sleep(profile.hang_seconds)
            outcome = inner.step(inputs)
            if outcome.blocked:
                return outcome
            outputs = outcome.outputs
            if draws[FaultKind.DROPPED_OUTPUT] < profile.dropped_output_rate and outputs:
                self._fire(FaultKind.DROPPED_OUTPUT)
                dropped = sorted(outputs)[rng.randrange(len(outputs))]
                outputs = outputs - {dropped}
            if draws[FaultKind.SPURIOUS_OUTPUT] < profile.spurious_output_rate:
                available = sorted(inner.outputs - outputs)
                if available:
                    self._fire(FaultKind.SPURIOUS_OUTPUT)
                    outputs = outputs | {available[rng.randrange(len(available))]}
            if outputs is not outcome.outputs:
                return StepOutcome(outcome.period, outcome.inputs, outputs, blocked=False)
            return outcome
        # Offline replay: the only injectable fault is nondeterminism.
        draw = rng.random()
        outcome = inner.step(inputs)
        if draw < profile.replay_flip_rate and not outcome.blocked:
            self._fire(FaultKind.REPLAY_FLIP)
            flipped = self._flip(outcome.outputs, inner.outputs)
            if flipped is not None:
                return StepOutcome(outcome.period, outcome.inputs, flipped, blocked=False)
        return outcome

    def _flip(self, outputs: frozenset[str], alphabet: frozenset[str]) -> frozenset[str] | None:
        """Toggle one output signal so replay visibly diverges."""
        if outputs:
            victim = sorted(outputs)[self._rng.randrange(len(outputs))]
            return outputs - {victim}
        available = sorted(alphabet)
        if not available:
            return None
        return outputs | {available[self._rng.randrange(len(available))]}
