"""One consolidated knob surface for the synthesis loop.

:class:`SynthesisSettings` is one frozen, validated value that
:func:`repro.integration.integrate`,
:class:`~repro.synthesis.iterate.IntegrationSynthesizer`, and
:class:`~repro.synthesis.multi.MultiLegacySynthesizer` all accept as
``settings=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SynthesisError
from ..testing.faults import FaultProfile
from ..testing.robust import RetryPolicy

if TYPE_CHECKING:  # runtime imports stay lazy so the component host
    # entry point (``python -m repro.legacy.remote``) is not imported
    # twice through the ``repro`` package graph.
    from ..legacy.remote import RemotePolicy

__all__ = ["SynthesisSettings"]


@dataclass(frozen=True)
class SynthesisSettings:
    """Loop-tuning knobs shared by every synthesis entry point.

    Parameters
    ----------
    max_iterations:
        Safety budget for the loop; exceeding it yields a
        ``BUDGET_EXCEEDED`` verdict.  (§4.4 guarantees termination, so
        this is a guard rail, not a semantic limit.)
        :class:`~repro.synthesis.multi.MultiLegacySynthesizer` defaults
        to 1000 instead of 500 — pass an explicit value to override.
    counterexamples_per_iteration:
        Derive up to this many counterexamples from each failed check
        and test/learn all of them before re-verifying (the batching
        optimisation proposed in the paper's conclusion).
    retry_policy:
        The :class:`repro.testing.robust.RetryPolicy` supervising every
        test execution: retry budget, backoff, per-step/per-test
        deadlines, recording validation.  ``None`` (the default) defers
        to ``REPRO_TEST_RETRIES`` and falls back to the default policy
        — whose fault-free behavior is identical to the raw executor.
    fault_profile:
        A :class:`repro.testing.faults.FaultProfile` to inject into the
        component under test (chaos testing of the loop itself).
        ``None`` defers to ``REPRO_FAULT_SEED`` (which selects the
        ``mild`` profile) and falls back to no injection.  With the
        mild profile and the default retry budget, verdicts and learned
        models stay bit-identical to the fault-free run — faults only
        cost retries (see ``docs/robustness.md``).
    remote:
        Run the component under test *out of process* behind the
        supervised subprocess adapter (:mod:`repro.legacy.remote`).  A
        :class:`repro.legacy.RemotePolicy` sets the per-step deadline
        and the spawn timeout; ``True`` selects the default
        policy; ``False`` forces in-process execution; ``None`` (the
        default) defers to the ``REPRO_REMOTE`` environment variable.
        Fault-free verdicts and iteration records are bit-identical to
        in-process execution — the adapter only changes *where* the
        component runs and what a real crash or hang can do (see
        ``docs/remote.md``).  When combined with ``fault_profile``, the
        faults are injected *inside* the host process.
    tracer:
        The observability stream (a :class:`repro.obs.Tracer`) that
        receives the run's spans, metrics, progress events and
        anomalies; its sinks decide where they go — a trace file, the
        flight recorder's blackbox, a progress sink, e.g.
        ``Tracer(FlightRecorder("dumps/"), TtyProgressSink())``.  An
        explicit tracer is used exactly as given; ``None`` (the
        default) defers to the ``REPRO_TRACE`` / ``REPRO_TRACE_FORMAT``
        / ``REPRO_BLACKBOX`` variables (see
        :func:`repro.obs.resolve_tracer`) and falls back to the
        zero-overhead :data:`repro.obs.NULL_TRACER`.  Excluded from
        equality/repr — observing a run never changes it.
    """

    max_iterations: int | None = None
    counterexamples_per_iteration: int = 1
    retry_policy: RetryPolicy | None = None
    fault_profile: FaultProfile | None = None
    remote: RemotePolicy | bool | None = None
    tracer: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_iterations is not None and (
            not isinstance(self.max_iterations, int)
            or isinstance(self.max_iterations, bool)
            or self.max_iterations < 1
        ):
            raise SynthesisError(
                f"max_iterations must be a positive integer, got {self.max_iterations!r}"
            )
        if (
            not isinstance(self.counterexamples_per_iteration, int)
            or isinstance(self.counterexamples_per_iteration, bool)
            or self.counterexamples_per_iteration < 1
        ):
            raise SynthesisError("counterexamples_per_iteration must be positive")
        if self.retry_policy is not None and not isinstance(self.retry_policy, RetryPolicy):
            raise SynthesisError(
                f"retry_policy must be a RetryPolicy, got {type(self.retry_policy).__name__}"
            )
        if self.fault_profile is not None and not isinstance(self.fault_profile, FaultProfile):
            raise SynthesisError(
                f"fault_profile must be a FaultProfile, got {type(self.fault_profile).__name__}"
            )
        if self.remote is not None and not isinstance(self.remote, bool):
            from ..legacy.remote import RemotePolicy

            if not isinstance(self.remote, RemotePolicy):
                raise SynthesisError(
                    f"remote must be a RemotePolicy, a bool, or None, got "
                    f"{type(self.remote).__name__}"
                )
        if self.tracer is not None and not (
            hasattr(self.tracer, "span") and hasattr(self.tracer, "event")
        ):
            raise SynthesisError(
                f"tracer must provide span() and event() (see repro.obs.Tracer), "
                f"got {type(self.tracer).__name__}"
            )

    # ------------------------------------------------------------ resolution

    def iterations_or(self, default: int) -> int:
        """``max_iterations`` with the entry point's own default."""
        return default if self.max_iterations is None else self.max_iterations

    def resolved_retry_policy(self) -> RetryPolicy:
        """The retry policy with environment fallback applied."""
        return self.retry_policy if self.retry_policy is not None else RetryPolicy.from_env()

    def resolved_fault_profile(self) -> "FaultProfile | None":
        """The fault profile: explicit, ``REPRO_FAULT_SEED``, or none."""
        return self.fault_profile if self.fault_profile is not None else FaultProfile.from_env()

    def resolved_remote(self) -> "RemotePolicy | None":
        """The remote policy: explicit, ``REPRO_REMOTE``, or in-process."""
        from ..legacy.remote import resolve_remote

        return resolve_remote(self.remote)
