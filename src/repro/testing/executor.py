"""Test execution against the live legacy component (§4.2, §5 phase 1).

The executor drives the component period by period with the test case's
inputs under **minimal** instrumentation (messages and periods only —
state probes would suffer the probe effect live).  It produces:

* a verdict — ``CONFIRMED`` (every period reacted exactly as the
  counterexample predicted: a *real* integration error, Lemma 6),
  ``DIVERGED`` (some period produced different outputs), or ``BLOCKED``
  (some period had no reaction at all);
* the recording needed for the deterministic replay phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..automata.interaction import Interaction
from ..legacy.component import Instrumentation, LegacyComponent
from .monitor import MessageEvent, message_events
from .testcase import TestCase, TestStep

__all__ = ["TestVerdict", "RecordedStep", "Recording", "TestExecution", "execute_test"]


class TestVerdict(Enum):
    __test__ = False  # not a pytest class, despite the name

    CONFIRMED = "confirmed"
    DIVERGED = "diverged"
    BLOCKED = "blocked"
    #: The execution could not be completed fault-free within its retry
    #: budget (see :mod:`repro.testing.robust`).  Never produced by
    #: :func:`execute_test` itself; never merged into the model and never
    #: reported as a real integration error — Lemma 6 requires a
    #: validated fault-free run for CONFIRMED.
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RecordedStep:
    """Minimal per-period record: what was fed and what was observed."""

    period: int
    inputs: frozenset[str]
    observed_outputs: frozenset[str]
    expected_outputs: frozenset[str]
    blocked: bool


@dataclass(frozen=True)
class Recording:
    """The minimal-event recording of one test execution.

    Contains everything deterministic replay needs: the exact input
    feed (with period numbers) and the observed reactions.
    """

    component: str
    steps: tuple[RecordedStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class TestExecution:
    """Outcome of executing one test case."""

    __test__ = False  # not a pytest class, despite the name

    testcase: TestCase
    verdict: TestVerdict
    divergence_index: int | None
    recording: Recording
    port: str = "port"

    @property
    def confirmed(self) -> bool:
        return self.verdict is TestVerdict.CONFIRMED

    @property
    def events(self) -> tuple[MessageEvent, ...]:
        """Minimal events reflecting what was observed at the ports.

        Rendered lazily: the synthesis loop executes thousands of tests
        but only reports ever read the listing text.
        """
        try:
            return self._events
        except AttributeError:
            actual_trace = tuple(
                Interaction(record.inputs, record.observed_outputs)
                for record in self.recording.steps
            )
            events = tuple(message_events(actual_trace, port=self.port))
            object.__setattr__(self, "_events", events)
            return events


def _observed_step(period: int, step: TestStep, outputs: frozenset[str], blocked: bool) -> RecordedStep:
    return RecordedStep(
        period=period,
        inputs=step.inputs,
        observed_outputs=outputs,
        expected_outputs=step.expected_outputs,
        blocked=blocked,
    )


def execute_test(component: LegacyComponent, testcase: TestCase, *, port: str = "port") -> TestExecution:
    """Run a test case against the component from its initial state.

    Execution stops at the first divergence or blocking — the remainder
    of the counterexample is meaningless once the real component has
    left the predicted path.

    A component that offers ``execute_in_host`` (an out-of-process
    :class:`~repro.legacy.remote.RemoteComponent`) runs this very
    function in its host and ships the outcome back in one frame.
    """
    in_host = getattr(component, "execute_in_host", None)
    if in_host is not None:
        return in_host(testcase, port=port)
    component.reset()
    recorded: list[RecordedStep] = []
    verdict = TestVerdict.CONFIRMED
    divergence_index: int | None = None
    try:
        with component.instrumented(Instrumentation.MINIMAL, live=True):
            for index, step in enumerate(testcase.steps):
                outcome = component.step(step.inputs)
                if outcome.blocked:
                    recorded.append(_observed_step(outcome.period, step, frozenset(), blocked=True))
                    verdict = TestVerdict.BLOCKED
                    divergence_index = index
                    break
                recorded.append(_observed_step(outcome.period, step, outcome.outputs, blocked=False))
                if outcome.outputs != step.expected_outputs:
                    verdict = TestVerdict.DIVERGED
                    divergence_index = index
                    break
    finally:
        # A step that raises (unknown port, injected fault, timeout)
        # must not leave the component mid-run for the next caller.
        component.reset()
    recording = Recording(component=component.name, steps=tuple(recorded))
    return TestExecution(
        testcase=testcase,
        verdict=verdict,
        divergence_index=divergence_index,
        recording=recording,
        port=port,
    )
