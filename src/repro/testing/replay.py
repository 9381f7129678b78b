"""Deterministic replay: phase 2 of the paper's monitoring scheme (§5).

"In a first step, we (can) execute the system in the real environment
and monitor only the relevant information for deterministic replay
e.g., the incoming/outgoing messages and the period number … In a
second step, we reproduce the execution deterministically by the
recorded data of the first step.  We (can) add further instrumentation,
which have no effects on the execution, to get the information of the
relevant events for the behavior synthesize — especially the required
state information."

:func:`replay` re-executes a :class:`~repro.testing.executor.Recording`
offline (``live=False``), probing the component state around every
period, and returns the fully observed run — states included — that the
learning step (Definitions 11/12) merges into the behavioral model.
Replay verifies determinism as it goes: any difference between replayed
and recorded reactions raises :class:`~repro.errors.ReplayError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.interaction import Interaction
from ..automata.runs import Run
from ..errors import ReplayError
from ..legacy.component import Instrumentation, LegacyComponent
from .executor import Recording
from .monitor import MonitorEvent, events_for_run

__all__ = ["ReplayResult", "replay"]


@dataclass(frozen=True)
class ReplayResult:
    """The fully instrumented observation of a replayed execution."""

    component: str
    observed_run: Run
    probe_effect_free: bool
    port: str = "port"

    @property
    def blocked(self) -> bool:
        return self.observed_run.blocked is not None

    @property
    def events(self) -> tuple[MonitorEvent, ...]:
        """Full-instrumentation events for the observed run.

        Rendered lazily: the synthesis loop replays every recording but
        only reports ever read the listing text.
        """
        try:
            return self._events
        except AttributeError:
            events = tuple(events_for_run(self.observed_run, port=self.port))
            object.__setattr__(self, "_events", events)
            return events


def replay(component: LegacyComponent, recording: Recording, *, port: str = "port") -> ReplayResult:
    """Deterministically re-execute a recording with full instrumentation.

    Returns the observed run over the component's *real* state
    identifiers: regular steps for every period that reacted, and a
    blocked tail (Definition 2's deadlock-run shape) when the recorded
    execution ended in a refusal — carrying the outputs the original
    counterexample expected, which is what Definition 12 adds to ``T̄``.

    A component that offers ``replay_in_host`` (an out-of-process
    :class:`~repro.legacy.remote.RemoteComponent`) runs this very
    function in its host and ships the observed run back in one frame.
    """
    in_host = getattr(component, "replay_in_host", None)
    if in_host is not None:
        return in_host(recording, port=port)
    if recording.component != component.name:
        raise ReplayError(
            f"recording belongs to {recording.component!r}, not {component.name!r}"
        )
    component.reset()
    try:
        with component.instrumented(Instrumentation.FULL, live=False):
            start = component.monitor_state()
            # Accumulate steps in a list and build the Run once: extending an
            # immutable Run per period would copy the prefix every time.
            steps: list[tuple[Interaction, object]] = []
            blocked_tail: Interaction | None = None
            for record in recording.steps:
                outcome = component.step(record.inputs)
                if outcome.blocked != record.blocked:
                    raise ReplayError(
                        f"replay diverged from recording at period {record.period}: "
                        f"recorded blocked={record.blocked}, replayed blocked={outcome.blocked} "
                        "— the component is not deterministic"
                    )
                if record.blocked:
                    blocked_tail = Interaction(record.inputs, record.expected_outputs)
                    break
                if outcome.outputs != record.observed_outputs:
                    raise ReplayError(
                        f"replay diverged from recording at period {record.period}: "
                        f"recorded outputs {sorted(record.observed_outputs)}, replayed "
                        f"{sorted(outcome.outputs)} — the component is not deterministic"
                    )
                steps.append((outcome.interaction, component.monitor_state()))
            run = Run(start, tuple(steps), blocked=blocked_tail)
            probe_free = not component.probe_effect_active
    finally:
        # A divergence (or injected replay fault) must not leave the
        # component mid-run for the next caller.
        component.reset()
    return ReplayResult(
        component=component.name,
        observed_run=run,
        probe_effect_free=probe_free,
        port=port,
    )
