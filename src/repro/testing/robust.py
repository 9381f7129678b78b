"""Fault-tolerant test execution: retries, deadlines, validated verdicts.

:class:`RobustExecutor` wraps :func:`repro.testing.executor.execute_test`
and :func:`repro.testing.replay.replay` with a :class:`RetryPolicy`:

* bounded retries of the live phase with exponential backoff and
  *deterministic* jitter (derived from the test name, never from RNG
  state, so retry schedules are reproducible);
* a per-step deadline (cooperative: each step's wall time is checked
  after it returns, which deterministically catches injected hangs) and
  a per-test deadline enforced on a deadline thread
  (:meth:`WorkerPool.call`);
* recording validation before the result is trusted: when faults are
  possible, every completed live execution is replayed and a
  :class:`~repro.errors.ReplayError` divergence triggers re-record /
  re-replay recovery for a bounded number of rounds.

The outcome is a :class:`RobustExecution`.  When every round is
exhausted it is *inconclusive* — mapped by the synthesis loop to
``TestVerdict.INCONCLUSIVE``, never merged into ``M_l`` and never
reported as a real integration error (Lemma 6's no-false-negatives
guarantee requires a validated fault-free run for ``CONFIRMED``).
Inconclusive counterexamples wait in a bounded :class:`Quarantine` and
are retried in later iterations.

The fault-free fast path adds one ``try`` block and a handful of
attribute reads per test — pinned ≤5% of loop time by
``benchmarks/bench_overhead_guards.py::test_robust_overhead_guard``.
"""

from __future__ import annotations

import atexit
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from ..automata.runs import Run
from ..errors import (
    ExecutionError,
    FaultInjectionError,
    RemoteComponentError,
    ReplayError,
    SynthesisError,
    TestTimeoutError,
)
from .executor import TestExecution, TestVerdict, execute_test
from .replay import ReplayResult, replay
from .testcase import TestCase

__all__ = [
    "TEST_RETRIES_ENV",
    "RetryPolicy",
    "RobustExecution",
    "RobustExecutor",
    "Quarantine",
]

#: Environment variable overriding the default retry budget: the
#: chaos CI job sets ``REPRO_TEST_RETRIES`` alongside
#: ``REPRO_FAULT_SEED`` without touching any call site.
TEST_RETRIES_ENV = "REPRO_TEST_RETRIES"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-recovery knobs of the robust executor.

    Parameters
    ----------
    max_attempts:
        Live ``execute_test`` attempts per recording round (so
        ``max_attempts - 1`` retries).  Raised errors that are not
        replay divergences count against this budget.
    replay_attempts:
        Validation replays per recording before the divergence is
        treated as a corrupted recording (re-record round).
    record_rounds:
        Full re-record cycles after a validation divergence before the
        execution is declared inconclusive.
    backoff_base:
        First retry delay in seconds; ``0`` (the default) disables
        sleeping entirely — synthesis-loop retries against an in-process
        component gain nothing from waiting.
    backoff_factor:
        Exponential growth of the delay per retry.
    backoff_jitter:
        Maximal extra delay fraction; the actual fraction is derived
        from CRC-32 of ``(test name, attempt)`` — deterministic, no
        shared RNG state.
    step_timeout:
        Per-step deadline in seconds (cooperative — checked after each
        step returns), or ``None`` for no step deadline.
    test_timeout:
        Per-test wall-clock deadline in seconds, enforced via
        :meth:`WorkerPool.call`, or ``None``.
    validate:
        Replay-validate every completed execution before trusting its
        verdict.  ``None`` (default) auto-enables validation exactly
        when the component can inject faults, keeping the fault-free
        fast path identical to the raw executor.
    """

    max_attempts: int = 3
    replay_attempts: int = 2
    record_rounds: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    step_timeout: float | None = None
    test_timeout: float | None = None
    validate: bool | None = None

    def __post_init__(self) -> None:
        for name in ("max_attempts", "replay_attempts", "record_rounds"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise SynthesisError(f"{name} must be a positive integer, got {value!r}")
        # Negated comparisons, so NaN (false under every comparison) fails.
        if not (
            self.backoff_base >= 0 and self.backoff_factor >= 1 and self.backoff_jitter >= 0
        ):
            raise SynthesisError(
                "backoff_base/backoff_jitter must be >= 0 and backoff_factor >= 1, got "
                f"{self.backoff_base!r}/{self.backoff_jitter!r}/{self.backoff_factor!r}"
            )
        for name in ("step_timeout", "test_timeout"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise SynthesisError(f"{name} must be positive or None, got {value!r}")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The default policy with :data:`TEST_RETRIES_ENV` applied."""
        raw = os.environ.get(TEST_RETRIES_ENV, "").strip()
        if not raw:
            return cls()
        try:
            retries = int(raw)
        except ValueError:
            raise SynthesisError(
                f"{TEST_RETRIES_ENV} must be a non-negative integer, got {raw!r}"
            ) from None
        if retries < 0:
            raise SynthesisError(
                f"{TEST_RETRIES_ENV} must be a non-negative integer, got {raw!r}"
            )
        return cls(max_attempts=retries + 1)

    def delay(self, key: str, attempt: int) -> float:
        """The backoff before retry ``attempt`` (0-based), with jitter.

        Deterministic: the jitter fraction is CRC-32 of
        ``"{key}#{attempt}"`` scaled into ``[0, backoff_jitter]``, so a
        retried test always waits the same amount — no RNG state leaks
        between the fault schedule and the retry schedule.
        """
        if self.backoff_base <= 0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor**attempt
        token = f"{key}#{attempt}".encode("utf-8", "backslashreplace")
        fraction = (zlib.crc32(token) % 10_000) / 10_000
        return raw * (1.0 + self.backoff_jitter * fraction)


@dataclass(frozen=True)
class RobustExecution:
    """Outcome of one supervised test execution.

    ``execution is None`` means *inconclusive*: the test could not be
    completed fault-free within the policy's budgets.  ``validated``
    means the recording survived a full deterministic replay, whose
    result is carried in ``replay`` so the learning step never replays
    twice.
    """

    testcase: TestCase
    execution: TestExecution | None
    replay: ReplayResult | None
    validated: bool
    attempts: int  #: live ``execute_test`` calls, across all rounds
    retries: int  #: attempts beyond the first of each round
    timeouts: int  #: step/test deadline expiries observed
    faults: int  #: ``FaultInjectionError`` aborts observed
    replays_performed: int  #: validation replays actually run
    re_records: int  #: recording rounds restarted after replay divergence
    reason: str | None = None  #: why the execution is inconclusive

    @property
    def inconclusive(self) -> bool:
        return self.execution is None

    @property
    def verdict(self) -> TestVerdict:
        if self.execution is None:
            return TestVerdict.INCONCLUSIVE
        return self.execution.verdict


class _StepDeadline:
    """Transparent proxy enforcing a per-step wall-clock deadline.

    Cooperative by design: the deadline is checked after each step
    returns.  In-process, that is the strongest guarantee available —
    a truly unbounded stall can only be *abandoned* (the per-test pool
    deadline leaves the worker thread behind), never preempted, because
    Python threads cannot be killed.  Preemptive per-step deadlines —
    where the stalled component is actually terminated — require the
    out-of-process adapter: :class:`repro.legacy.remote.RemoteComponent`
    enforces ``RemotePolicy.step_deadline`` by ``SIGKILL``-ing the host
    process (covered by the blocking-step regression test in
    ``tests/test_robust.py``).  This proxy still deterministically
    converts every injected (bounded) hang into a
    :class:`~repro.errors.TestTimeoutError`.
    """

    __slots__ = ("_component", "_limit", "_clock")

    def __init__(self, component, limit: float, clock):
        self._component = component
        self._limit = limit
        self._clock = clock

    def __getattr__(self, name: str):
        return getattr(self._component, name)

    def step(self, inputs=()):
        begin = self._clock()
        outcome = self._component.step(inputs)
        elapsed = self._clock() - begin
        if elapsed > self._limit:
            raise TestTimeoutError(
                f"step on {self._component.name!r} took {elapsed:.3f}s, "
                f"exceeding the {self._limit:.3f}s per-step deadline"
            )
        return outcome


class Quarantine:
    """Bounded holding pen for inconclusive counterexamples.

    The loop pushes a counterexample here when its test came back
    inconclusive and drains the queue at the start of every later
    iteration, so quarantined counterexamples are *eventually retried*.
    Entries whose retry budget is spent move to :attr:`expired` — still
    *reported* (surfaced on the synthesis result), never silently
    dropped; pushes beyond ``capacity`` are counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 32, max_retries: int = 4):
        if capacity < 1 or max_retries < 1:
            raise SynthesisError(
                f"quarantine capacity/max_retries must be positive, got "
                f"{capacity!r}/{max_retries!r}"
            )
        self.capacity = capacity
        self.max_retries = max_retries
        self._entries: list[tuple[Run, bool]] = []
        self._attempts: dict[str, int] = {}
        self.dropped = 0
        self.expired: list[Run] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, run: Run, *, probe: bool = False) -> bool:
        """Queue a counterexample for a later retry; False when full/known."""
        key = repr(run)
        if any(repr(entry) == key for entry, _ in self._entries):
            return False
        attempts = self._attempts.get(key, 0)
        if attempts >= self.max_retries:
            self.expired.append(run)
            return False
        if len(self._entries) >= self.capacity:
            self.dropped += 1
            return False
        self._entries.append((run, probe))
        self._attempts[key] = attempts + 1
        return True

    def drain(self) -> list[tuple[Run, bool]]:
        """Remove and return every queued ``(run, needs_probing)`` entry."""
        entries = self._entries
        self._entries = []
        return entries

    @property
    def pending(self) -> tuple[Run, ...]:
        return tuple(run for run, _ in self._entries)

    def unresolved(self) -> tuple[Run, ...]:
        """Everything still quarantined or expired — for final reporting."""
        return tuple(self.pending) + tuple(self.expired)


class WorkerPool:
    """The deadline thread of per-test wall-clock limits.

    One supervised execution runs at a time, so one lazily started
    worker suffices; it is reused, so repeated tests never pay thread
    start-up twice.
    """

    def __init__(self) -> None:
        self._executor: ThreadPoolExecutor | None = None
        self.stats: dict[str, int] = {
            "pool_executor_creations": 0,
            "pool_deadline_calls": 0,
            "pool_deadline_timeouts": 0,
        }

    def call(self, function, *, timeout: float, on_expiry=None):
        """Run ``function`` on the deadline thread under a wall-clock limit.

        On expiry the straggler is *joined* — never abandoned — before
        :class:`~repro.errors.TestTimeoutError` is raised: the function
        typically drives a live component, and letting a zombie thread
        keep stepping it would corrupt the next attempt.  Deadline
        enforcement is therefore only as hard as the function's own
        stalls are finite (injected hangs always are), unless
        ``on_expiry`` cuts the stall short: it runs at the deadline,
        before the join (an out-of-process component's ``interrupt``).
        """
        self.stats["pool_deadline_calls"] += 1
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-pool")
            self.stats["pool_executor_creations"] += 1
        future = self._executor.submit(function)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            self.stats["pool_deadline_timeouts"] += 1
            if on_expiry is not None:
                on_expiry()
            try:
                future.result()  # join the straggler; discard its outcome
            except Exception:
                pass
            raise TestTimeoutError(
                f"test execution exceeded its {timeout:.3f}s deadline"
            ) from None

    def publish_to(self, registry) -> None:
        """Snapshot the counters into a metrics registry (gauge semantics)."""
        registry.absorb(self.stats)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None


#: The process-wide deadline thread shared by every executor.
_POOL = WorkerPool()
atexit.register(_POOL.shutdown)


class RobustExecutor:
    """Supervises live executions and validation replays under a policy.

    One executor serves one synthesis loop; it is stateless between
    calls apart from the injected clock/sleep hooks (overridable for
    tests).  All randomness lives in the component's fault schedule and
    the policy's deterministic jitter, so a supervised run is exactly
    reproducible from the fault seed.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        *,
        tracer=None,
        pool: WorkerPool | None = None,
        clock=time.perf_counter,
        sleep=time.sleep,
    ):
        from ..obs.tracer import resolve_tracer

        self.policy = policy if policy is not None else RetryPolicy()
        self.tracer = resolve_tracer(tracer)
        self._pool = pool
        self._clock = clock
        self._sleep = sleep

    # ---------------------------------------------------------------- helpers

    @property
    def pool(self) -> WorkerPool:
        return self._pool if self._pool is not None else _POOL

    @staticmethod
    def _fault_scope(component):
        armed = getattr(component, "inject_faults", None)
        return armed() if armed is not None else nullcontext()

    def _should_validate(self, component) -> bool:
        if self.policy.validate is not None:
            return self.policy.validate
        return bool(getattr(component, "fault_injection_active", False))

    # -------------------------------------------------------------- execution

    def execute(self, component, testcase: TestCase, *, port: str = "port") -> RobustExecution:
        """Execute a test with retries, deadlines, and validation."""
        policy = self.policy
        validate = self._should_validate(component)
        deadline = (
            self._clock() + policy.test_timeout if policy.test_timeout is not None else None
        )
        attempts = retries = timeouts = faults = replays = re_records = 0
        reason: str | None = None

        for _ in range(policy.record_rounds):
            execution: TestExecution | None = None
            for attempt in range(policy.max_attempts):
                if attempt:
                    retries += 1
                    self.tracer.event("test.retry", test=testcase.name, attempt=attempt)
                    pause = policy.delay(testcase.name, attempt - 1)
                    if pause > 0:
                        self._sleep(pause)
                attempts += 1
                span = (
                    self.tracer.span("test.retry", test=testcase.name, attempt=attempt)
                    if attempt
                    else nullcontext()
                )
                try:
                    with span:
                        execution = self._run_live(component, testcase, port, deadline)
                    break
                except TestTimeoutError as error:
                    timeouts += 1
                    reason = str(error)
                    self.tracer.event("test.timeout", test=testcase.name, attempt=attempt)
                    self.tracer.anomaly("test_timeout", test=testcase.name, error=reason)
                    # Out-of-process components expose ``interrupt()``:
                    # SIGKILL the host so the next attempt starts on a
                    # fresh one (a no-op when the host is already gone).
                    interrupt = getattr(component, "interrupt", None)
                    if interrupt is not None:
                        interrupt("test-deadline")
                except ReplayError:
                    raise  # never expected live; do not mask a harness bug
                except ExecutionError as error:
                    if isinstance(error, FaultInjectionError):
                        faults += 1
                    reason = str(error)
            if execution is None:
                break  # live budget exhausted: inconclusive
            if not validate:
                return RobustExecution(
                    testcase=testcase,
                    execution=execution,
                    replay=None,
                    validated=False,
                    attempts=attempts,
                    retries=retries,
                    timeouts=timeouts,
                    faults=faults,
                    replays_performed=replays,
                    re_records=re_records,
                )
            try:
                replay_result, used = self._validate_recording(component, execution, port)
                replays += used
            except ReplayError as error:
                replays += policy.replay_attempts
                re_records += 1
                reason = str(error)
                continue  # corrupted recording: re-record from scratch
            except (TestTimeoutError, FaultInjectionError, RemoteComponentError) as error:
                # A *real* failure mid-validation (the host process died
                # or hung during the replay — unreachable in-process,
                # where the replay path injects only divergences).  The
                # recording is untrusted and the component state is
                # gone: count the failure and re-record from scratch so
                # the round budget still bounds total work.
                if isinstance(error, TestTimeoutError):
                    timeouts += 1
                else:
                    faults += 1
                replays += 1
                re_records += 1
                reason = str(error)
                continue
            return RobustExecution(
                testcase=testcase,
                execution=execution,
                replay=replay_result,
                validated=True,
                attempts=attempts,
                retries=retries,
                timeouts=timeouts,
                faults=faults,
                replays_performed=replays,
                re_records=re_records,
            )

        final_reason = reason or "retry budget exhausted"
        self.tracer.event("test.inconclusive", test=testcase.name, reason=final_reason)
        self.tracer.anomaly(
            "test_inconclusive",
            test=testcase.name,
            detail=final_reason,
            attempts=attempts,
            timeouts=timeouts,
            faults=faults,
        )
        return RobustExecution(
            testcase=testcase,
            execution=None,
            replay=None,
            validated=False,
            attempts=attempts,
            retries=retries,
            timeouts=timeouts,
            faults=faults,
            replays_performed=replays,
            re_records=re_records,
            reason=final_reason,
        )

    def _run_live(self, component, testcase: TestCase, port: str, deadline) -> TestExecution:
        policy = self.policy
        in_host = getattr(component, "execute_in_host", None)
        if in_host is not None:
            # A one-frame remote execution steps host-side, out of a
            # proxy's reach: the per-step limit travels in the frame.
            run = partial(in_host, testcase, port=port, step_timeout=policy.step_timeout)
        elif policy.step_timeout is not None:
            target = _StepDeadline(component, policy.step_timeout, self._clock)
            run = partial(execute_test, target, testcase, port=port)
        else:
            run = partial(execute_test, component, testcase, port=port)
        with self._fault_scope(component):
            if deadline is None:
                return run()
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise TestTimeoutError(
                    f"test {testcase.name!r} reached its "
                    f"{policy.test_timeout:.3f}s deadline before attempt start"
                )
            # Out-of-process components expose ``interrupt()``: SIGKILL
            # the host at the deadline, so the straggler's blocked frame
            # read turns into an immediate EOF and the pool's join of it
            # returns at once instead of waiting out the frame deadline.
            interrupt = getattr(component, "interrupt", None)
            return self.pool.call(
                run,
                timeout=remaining,
                on_expiry=None if interrupt is None else partial(interrupt, "test-deadline"),
            )

    # ---------------------------------------------------------------- replay

    def _validate_recording(
        self, component, execution: TestExecution, port: str
    ) -> tuple[ReplayResult, int]:
        """Replay until the recording is confirmed; raise after the budget."""
        last: ReplayError | None = None
        for attempt in range(self.policy.replay_attempts):
            try:
                return self.replay_once(component, execution.recording, port=port), attempt + 1
            except ReplayError as error:
                last = error
        assert last is not None
        raise last

    def replay_once(self, component, recording, *, port: str = "port") -> ReplayResult:
        """One armed, traced replay (shared by validation and recovery)."""
        with self.tracer.span("monitor.replay", steps=len(recording.steps)):
            with self._fault_scope(component):
                return replay(component, recording, port=port)

    def replay_validated(self, component, recording, *, port: str = "port") -> ReplayResult:
        """Replay with the policy's retry budget (for recovery paths)."""
        last: ReplayError | None = None
        for _ in range(self.policy.replay_attempts):
            try:
                return self.replay_once(component, recording, port=port)
            except ReplayError as error:
                last = error
        assert last is not None
        raise last
