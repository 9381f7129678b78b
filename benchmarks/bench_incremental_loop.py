"""Incremental verification engine: loop wall-time vs full recompose.

The synthesis loop re-verifies after every learning step.  The
from-scratch pipeline rebuilds the chaotic closure, recomposes the
product, and model-checks cold each iteration; the incremental engine
(:mod:`repro.automata.incremental`) patches the dirty region of all
three instead.  Both must produce the *same* closures, products,
verdicts, and final models — only the work differs.

Measured here on the RailCab convoy workload (the paper's running
example, scaled via ``convoy_ticks`` so the loop runs for hundreds of
learning iterations) and on the multi-legacy front+rear workload.
``test_incremental_speedup_over_full_recompose`` asserts the headline
claim: at least a 3x total-loop speedup at identical verdicts.

The ``tracing_overhead`` guard covers the observability layer
(``repro.obs``): the instrumentation is permanent, so the
``NullTracer`` cost is measured as span-count × per-null-call cost
(there is no un-instrumented loop to diff against) and must stay below
1% of loop time; a live JSONL-streaming tracer must stay within 10%.
The ``robust_overhead`` guard applies the same accounting to the
fault-tolerant test supervisor (``repro.testing.robust``): the
fault-free supervised path must stay within 5% of loop time.  The
``flight_recorder_overhead`` guard does it once more for the progress
/ flight-recorder event sites: un-armed (``NULL_TRACER.event``) below
1%, a stream whose sink is an armed in-memory ring below 5%.  The
``remote_overhead`` guard pins the out-of-process boundary
(``repro.legacy.remote``): a warm host's per-step frame round-trip
must cost under 5ms over the in-process step, and a generic ``rehost``
that leases the ready warm spare host must stay far below a cold
interpreter spawn.

``tools/bench_report.py`` normalizes this module's
``--benchmark-json`` output into ``BENCH_loop.json``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time

from repro import railcab
from repro.obs import NULL_TRACER, TraceFile, Tracer
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict
from repro.synthesis.multi import MultiLegacySynthesizer

#: Convoy length for the per-path benchmarks (quick: ~70 iterations).
QUICK_TICKS = 32
#: Convoy length for the speedup comparison (~200 iterations; the
#: larger product makes the full-recompose overhead dominate clearly).
SPEEDUP_TICKS = 96
#: The headline claim asserted by this module.
SPEEDUP_FLOOR = 3.0


def _convoy_synthesizer(
    *,
    incremental: bool,
    ticks: int,
    tracer=None,
) -> IntegrationSynthesizer:
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=ticks),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        settings=SynthesisSettings(incremental=incremental, tracer=tracer),
    )


def _multi_synthesizer(*, incremental: bool) -> MultiLegacySynthesizer:
    return MultiLegacySynthesizer(
        None,
        [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=8)],
        railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
        settings=SynthesisSettings(incremental=incremental),
    )


def _loop_extra_info(result) -> dict:
    last = result.iterations[-1]
    return {
        "iterations": result.iteration_count,
        "composed_states_final": last.composed_states,
        "composed_states_max": max(r.composed_states for r in result.iterations),
        "checker_fixpoint_work_total": sum(r.checker_fixpoint_work for r in result.iterations),
        "product_hits": sum(r.product_hits for r in result.iterations),
        "product_misses": sum(r.product_misses for r in result.iterations),
        "closure_groups_reused": sum(r.closure_groups_reused for r in result.iterations),
        "closure_groups_rebuilt": sum(r.closure_groups_rebuilt for r in result.iterations),
        "dirty_states_total": sum(r.dirty_states for r in result.iterations),
        "affected_states_total": sum(r.affected_states for r in result.iterations),
    }


def test_loop_incremental_convoy(benchmark):
    """Total loop wall-time with the incremental engine (default path)."""
    result = benchmark(lambda: _convoy_synthesizer(incremental=True, ticks=QUICK_TICKS).run())
    assert result.verdict is Verdict.PROVEN
    assert result.iteration_count >= 8
    benchmark.extra_info.update(_loop_extra_info(result))
    benchmark.extra_info["mode"] = "incremental"
    benchmark.extra_info["convoy_ticks"] = QUICK_TICKS


def test_loop_full_recompose_convoy(benchmark):
    """Total loop wall-time rebuilding closure/product/checker each iteration."""
    result = benchmark(lambda: _convoy_synthesizer(incremental=False, ticks=QUICK_TICKS).run())
    assert result.verdict is Verdict.PROVEN
    assert result.iteration_count >= 8
    benchmark.extra_info.update(_loop_extra_info(result))
    benchmark.extra_info["mode"] = "full_recompose"
    benchmark.extra_info["convoy_ticks"] = QUICK_TICKS


def test_incremental_speedup_over_full_recompose(benchmark):
    """>= 3x total-loop speedup at identical verdicts (the tentpole claim).

    Interleaves full and incremental runs and compares the per-mode
    minima — the statistic least sensitive to scheduler noise (and the
    one pytest-benchmark itself leads with).
    """

    def measure():
        incr_times: list[float] = []
        full_times: list[float] = []
        results = {}
        for _ in range(5):
            t0 = time.perf_counter()
            results["incremental"] = _convoy_synthesizer(
                incremental=True, ticks=SPEEDUP_TICKS
            ).run()
            incr_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            results["full"] = _convoy_synthesizer(
                incremental=False, ticks=SPEEDUP_TICKS
            ).run()
            full_times.append(time.perf_counter() - t0)
        return results, incr_times, full_times

    results, incr_times, full_times = benchmark.pedantic(measure, rounds=1, iterations=1)
    incremental, full = results["incremental"], results["full"]

    # Equal outcomes: the engine must not change what the loop concludes.
    assert incremental.verdict is full.verdict is Verdict.PROVEN
    assert incremental.iteration_count == full.iteration_count >= 8
    assert incremental.final_model == full.final_model

    speedup_min = min(full_times) / min(incr_times)
    speedup_median = statistics.median(full_times) / statistics.median(incr_times)
    benchmark.extra_info.update(
        {
            "convoy_ticks": SPEEDUP_TICKS,
            "iterations": incremental.iteration_count,
            "full_loop_seconds_min": min(full_times),
            "incremental_loop_seconds_min": min(incr_times),
            "full_loop_seconds_median": statistics.median(full_times),
            "incremental_loop_seconds_median": statistics.median(incr_times),
            "speedup_min": speedup_min,
            "speedup_median": speedup_median,
            "incremental_extra": _loop_extra_info(incremental),
            "full_extra": _loop_extra_info(full),
        }
    )
    assert speedup_min >= SPEEDUP_FLOOR, (
        f"incremental engine speedup {speedup_min:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(full min {min(full_times) * 1000:.1f}ms, incremental min {min(incr_times) * 1000:.1f}ms)"
    )


#: Ceilings asserted by :func:`test_tracing_overhead_guard`.
NULL_TRACER_OVERHEAD_CEILING = 0.01
JSONL_TRACER_OVERHEAD_CEILING = 0.10


def _best_of(timed, repeats: int = 3) -> float:
    """Best-of-N for a timed microbenchmark: the minimum is the least
    noise-contaminated estimate of the true cost on a shared runner."""
    return min(timed() for _ in range(repeats))


def test_tracing_overhead_guard(benchmark):
    """Tracing must be free when off and cheap when on.

    The span instrumentation lives permanently in the loop's hot paths,
    so there is no un-instrumented baseline to compare against.  Both
    ceilings are therefore bounded the same way: count the spans a
    traced run of the workload emits, microbenchmark the cost of one
    span enter/exit in that mode, and bound their product as a fraction
    of the (null-traced) loop time.  The ``NullTracer`` cycle — shared
    no-op handle, no allocation — must stay below 1%; the active cycle
    of a stream with a JSONL :class:`TraceFile` sink (the ``REPRO_TRACE``
    configuration: every span folded into the metrics, serialized and
    written to a real file) must stay below 10%.

    The end-to-end paired null-vs-streaming loop times are recorded in
    ``BENCH_loop.json`` alongside, but only sanity-bounded, not gated at the ceiling: on a shared runner
    the round-to-round wall-clock noise of a sub-second loop exceeds
    the single-digit overhead being measured.
    """

    def measure():
        null_times: list[float] = []
        jsonl_times: list[float] = []
        results = {}
        directory = tempfile.mkdtemp()
        path = os.path.join(directory, "trace.jsonl")
        try:
            for round_index in range(5):
                t0 = time.perf_counter()
                results["null"] = _convoy_synthesizer(
                    incremental=True, ticks=SPEEDUP_TICKS, tracer=NULL_TRACER
                ).run()
                null_times.append(time.perf_counter() - t0)
                stream = Tracer(TraceFile(path))
                t0 = time.perf_counter()
                results["jsonl"] = _convoy_synthesizer(
                    incremental=True, ticks=SPEEDUP_TICKS, tracer=stream
                ).run()
                jsonl_times.append(time.perf_counter() - t0)
                stream.close()
            with open(path, encoding="utf-8") as handle:
                spans_per_run = sum('"type":"span"' in line for line in handle)

            # Per-span costs in both modes, with representative args —
            # best of three timed blocks each, so a single GC pause or
            # scheduler hiccup cannot inflate the estimate.
            cycles = 100_000

            def time_null() -> float:
                t0 = time.perf_counter()
                for _ in range(cycles):
                    with NULL_TRACER.span("overhead.probe", kind="null"):
                        pass
                return (time.perf_counter() - t0) / cycles

            active = Tracer(TraceFile(os.path.join(directory, "probe.jsonl")))

            def time_active() -> float:
                t0 = time.perf_counter()
                for _ in range(cycles):
                    with active.span("overhead.probe", solve="reach", domain=512):
                        pass
                return (time.perf_counter() - t0) / cycles

            per_null_call = _best_of(time_null)
            per_active_call = _best_of(time_active)
            active.close()
        finally:
            shutil.rmtree(directory)
        return results, null_times, jsonl_times, spans_per_run, per_null_call, per_active_call

    # Best-of-N with one retry: a loaded CI runner can blow any single
    # measurement; only a bound exceeded by two independent measurement
    # passes is treated as a real regression.
    sample = benchmark.pedantic(measure, rounds=1, iterations=1)
    for attempt in (1, 2):
        results, null_times, jsonl_times, spans_per_run, per_null_call, per_active_call = sample
        null_result, jsonl_result = results["null"], results["jsonl"]
        assert null_result.verdict is jsonl_result.verdict is Verdict.PROVEN
        assert null_result.iteration_count == jsonl_result.iteration_count >= 8
        assert null_result.final_model == jsonl_result.final_model
        assert spans_per_run > 0

        null_fraction = spans_per_run * per_null_call / min(null_times)
        jsonl_fraction = spans_per_run * per_active_call / min(null_times)
        best_paired = min(j / n for j, n in zip(jsonl_times, null_times))
        min_ratio = min(jsonl_times) / min(null_times)
        benchmark.extra_info.update(
            {
                "mode": "tracing_overhead",
                "convoy_ticks": SPEEDUP_TICKS,
                "iterations": null_result.iteration_count,
                "spans_per_run": spans_per_run,
                "per_null_span_seconds": per_null_call,
                "per_active_span_seconds": per_active_call,
                "null_tracer_overhead_fraction": null_fraction,
                "jsonl_tracer_overhead_fraction": jsonl_fraction,
                "null_loop_seconds_min": min(null_times),
                "jsonl_loop_seconds_min": min(jsonl_times),
                "jsonl_vs_null_best_paired": best_paired,
                "jsonl_vs_null_min_ratio": min_ratio,
                "measurement_attempts": attempt,
            }
        )
        within_bounds = (
            null_fraction <= NULL_TRACER_OVERHEAD_CEILING
            and jsonl_fraction <= JSONL_TRACER_OVERHEAD_CEILING
            and min_ratio <= 1.5
        )
        if within_bounds:
            break
        if attempt == 1:
            sample = measure()  # retry once off-benchmark with fresh timings
            continue
        assert null_fraction <= NULL_TRACER_OVERHEAD_CEILING, (
            f"NullTracer overhead {null_fraction:.4%} of loop time exceeds the "
            f"{NULL_TRACER_OVERHEAD_CEILING:.0%} ceiling on both attempts "
            f"({spans_per_run} spans × {per_null_call * 1e9:.0f}ns)"
        )
        assert jsonl_fraction <= JSONL_TRACER_OVERHEAD_CEILING, (
            f"JSONL-streaming tracer overhead {jsonl_fraction:.2%} of loop time "
            f"exceeds the {JSONL_TRACER_OVERHEAD_CEILING:.0%} ceiling on both "
            f"attempts ({spans_per_run} spans × {per_active_call * 1e6:.1f}µs)"
        )
        # Gross-regression sanity bound on the end-to-end measurement only —
        # wall-clock noise on shared runners dwarfs the asserted ceilings.
        assert min_ratio <= 1.5, (
            f"JSONL-streaming run {min_ratio:.2f}x the null run (min-vs-min) — "
            f"far beyond per-span accounting; something pathological regressed"
        )


#: Ceilings asserted by :func:`test_flight_recorder_overhead_guard`.
NULL_FLIGHT_OVERHEAD_CEILING = 0.01
ACTIVE_FLIGHT_OVERHEAD_CEILING = 0.05


def test_flight_recorder_overhead_guard(benchmark):
    """The flight recorder must be free when off and cheap when armed.

    Like the tracing guard: the progress/flight event sites live
    permanently in the loop, so the un-armed cost is bounded by
    accounting — count the events an armed run records, microbenchmark
    one ``NULL_TRACER.event`` (the exact no-sink path every site takes
    by default), and pin the product below 1% of loop time.  A stream
    whose sink is an armed in-memory ring (:class:`FlightRecorder`
    without a directory — the ``--blackbox`` configuration between
    anomalies) is bounded the same way at 5%,
    with the paired end-to-end ratio recorded and only sanity-bounded.
    """
    from repro.obs import FlightRecorder

    def measure():
        null_times: list[float] = []
        active_times: list[float] = []
        results = {}
        events_per_run = 0
        for _ in range(5):
            t0 = time.perf_counter()
            results["null"] = _convoy_synthesizer(
                incremental=True, ticks=SPEEDUP_TICKS
            ).run()
            null_times.append(time.perf_counter() - t0)
            recorder = FlightRecorder(capacity=256)
            t0 = time.perf_counter()
            results["active"] = _convoy_synthesizer(
                incremental=True, ticks=SPEEDUP_TICKS, tracer=Tracer(recorder)
            ).run()
            active_times.append(time.perf_counter() - t0)
            events_per_run = recorder._recorded

        cycles = 100_000

        def time_null() -> float:
            t0 = time.perf_counter()
            for _ in range(cycles):
                NULL_TRACER.event("overhead.probe", iteration=1, tests_executed=3)
            return (time.perf_counter() - t0) / cycles

        armed = Tracer(FlightRecorder(capacity=256))

        def time_active() -> float:
            t0 = time.perf_counter()
            for _ in range(cycles):
                armed.event("overhead.probe", iteration=1, tests_executed=3)
            return (time.perf_counter() - t0) / cycles

        per_null_emit = _best_of(time_null)
        per_active_emit = _best_of(time_active)
        return results, null_times, active_times, events_per_run, per_null_emit, per_active_emit

    # Best-of-N with one retry, exactly like the tracing guard: only a
    # ceiling exceeded by two independent measurement passes fails.
    sample = benchmark.pedantic(measure, rounds=1, iterations=1)
    for attempt in (1, 2):
        results, null_times, active_times, events_per_run, per_null_emit, per_active_emit = sample
        null_result, active_result = results["null"], results["active"]
        assert null_result.verdict is active_result.verdict is Verdict.PROVEN
        assert null_result.iteration_count == active_result.iteration_count >= 8
        assert null_result.final_model == active_result.final_model
        assert events_per_run > 0

        null_fraction = events_per_run * per_null_emit / min(null_times)
        active_fraction = events_per_run * per_active_emit / min(null_times)
        best_paired = min(a / n for a, n in zip(active_times, null_times))
        min_ratio = min(active_times) / min(null_times)
        benchmark.extra_info.update(
            {
                "mode": "flight_recorder_overhead",
                "convoy_ticks": SPEEDUP_TICKS,
                "iterations": null_result.iteration_count,
                "events_per_run": events_per_run,
                "per_null_emit_seconds": per_null_emit,
                "per_active_emit_seconds": per_active_emit,
                "null_flight_overhead_fraction": null_fraction,
                "active_flight_overhead_fraction": active_fraction,
                "null_loop_seconds_min": min(null_times),
                "active_loop_seconds_min": min(active_times),
                "active_vs_null_best_paired": best_paired,
                "active_vs_null_min_ratio": min_ratio,
                "measurement_attempts": attempt,
            }
        )
        within_bounds = (
            null_fraction <= NULL_FLIGHT_OVERHEAD_CEILING
            and active_fraction <= ACTIVE_FLIGHT_OVERHEAD_CEILING
            and min_ratio <= 1.5
        )
        if within_bounds:
            break
        if attempt == 1:
            sample = measure()  # retry once off-benchmark with fresh timings
            continue
        assert null_fraction <= NULL_FLIGHT_OVERHEAD_CEILING, (
            f"un-armed flight/progress overhead {null_fraction:.4%} of loop time "
            f"exceeds the {NULL_FLIGHT_OVERHEAD_CEILING:.0%} ceiling on both "
            f"attempts ({events_per_run} events × {per_null_emit * 1e9:.0f}ns)"
        )
        assert active_fraction <= ACTIVE_FLIGHT_OVERHEAD_CEILING, (
            f"armed ring-recorder overhead {active_fraction:.2%} of loop time "
            f"exceeds the {ACTIVE_FLIGHT_OVERHEAD_CEILING:.0%} ceiling on both "
            f"attempts ({events_per_run} events × {per_active_emit * 1e6:.1f}µs)"
        )
        assert min_ratio <= 1.5, (
            f"armed run {min_ratio:.2f}x the un-armed run (min-vs-min) — far "
            f"beyond per-event accounting; something pathological regressed"
        )


#: Ceiling asserted by :func:`test_robust_overhead_guard`.
ROBUST_OVERHEAD_CEILING = 0.05


def test_robust_overhead_guard(benchmark):
    """The fault-free supervised test path must cost <= 5% of loop time.

    Every loop execution now runs through
    :class:`repro.testing.RobustExecutor` (retries, deadlines,
    validation — see ``docs/robustness.md``); without a fault profile
    the supervisor reduces to one ``try`` block and a handful of
    attribute reads around the raw :func:`execute_test`.  As with the
    tracing guard there is no un-supervised loop left to diff against,
    so the bound is per-call accounting: microbenchmark the raw
    executor and the supervised path on a representative test case,
    multiply the per-test delta by the tests a loop run executes, and
    pin the product below 5% of the measured loop time.
    """
    from repro.automata import Interaction
    from repro.testing import RobustExecutor, execute_test, test_case_from_trace

    def measure():
        loop_times: list[float] = []
        result = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = _convoy_synthesizer(incremental=True, ticks=SPEEDUP_TICKS).run()
            loop_times.append(time.perf_counter() - t0)

        component = railcab.correct_rear_shuttle(convoy_ticks=1)
        case = test_case_from_trace([Interaction()] * 4, name="overhead.probe")
        executor = RobustExecutor()
        cycles = 2_000

        def time_raw() -> float:
            t0 = time.perf_counter()
            for _ in range(cycles):
                execute_test(component, case, port="rearRole")
            return (time.perf_counter() - t0) / cycles

        def time_supervised() -> float:
            t0 = time.perf_counter()
            for _ in range(cycles):
                executor.execute(component, case, port="rearRole")
            return (time.perf_counter() - t0) / cycles

        # Best-of-three per mode: one preempted block must not fake a
        # supervision regression.
        per_raw = _best_of(time_raw)
        per_supervised = _best_of(time_supervised)
        return result, loop_times, per_raw, per_supervised

    # Best-of-N with one retry, mirroring the tracing guard: fail only
    # if the ceiling is exceeded by two independent measurement passes.
    sample = benchmark.pedantic(measure, rounds=1, iterations=1)
    for attempt in (1, 2):
        result, loop_times, per_raw, per_supervised = sample
        assert result.verdict is Verdict.PROVEN
        assert result.iteration_count >= 8
        # The fault-free loop retries nothing, quarantines nothing.
        assert result.total_test_retries == 0
        assert result.total_inconclusive == 0
        assert result.quarantined == ()

        tests_per_run = result.total_tests
        per_test_overhead = max(per_supervised - per_raw, 0.0)
        robust_fraction = tests_per_run * per_test_overhead / min(loop_times)
        benchmark.extra_info.update(
            {
                "mode": "robust_overhead",
                "convoy_ticks": SPEEDUP_TICKS,
                "iterations": result.iteration_count,
                "tests_per_run": tests_per_run,
                "per_raw_execute_seconds": per_raw,
                "per_supervised_execute_seconds": per_supervised,
                "per_test_overhead_seconds": per_test_overhead,
                "robust_overhead_fraction": robust_fraction,
                "loop_seconds_min": min(loop_times),
                "measurement_attempts": attempt,
            }
        )
        if robust_fraction <= ROBUST_OVERHEAD_CEILING:
            break
        if attempt == 1:
            sample = measure()  # retry once off-benchmark with fresh timings
            continue
        assert robust_fraction <= ROBUST_OVERHEAD_CEILING, (
            f"fault-free RobustExecutor overhead {robust_fraction:.2%} of loop "
            f"time exceeds the {ROBUST_OVERHEAD_CEILING:.0%} ceiling on both "
            f"attempts ({tests_per_run} tests × {per_test_overhead * 1e6:.1f}µs)"
        )


#: Ceilings asserted by :func:`test_remote_overhead_guard`.  One frame
#: round-trip over warm pipes is tens of microseconds; 5ms leaves two
#: orders of magnitude for a loaded CI runner while still catching a
#: protocol regression (an extra round-trip per step, a lost buffer).
REMOTE_STEP_OVERHEAD_CEILING = 0.005
#: A ``rehost`` that leases the ready warm spare (``load`` + ``hello``)
#: must stay well under a cold interpreter spawn — that gap is the
#: spare's entire reason to exist.
WARM_VS_COLD_CEILING = 0.5


def test_remote_overhead_guard(benchmark):
    """Out-of-process steps must stay cheap and generic launches warm.

    Two pins for ``repro.legacy.remote`` (see ``docs/remote.md``): the
    per-step RPC overhead of a warm host — one ``step`` frame
    round-trip minus the in-process step cost — stays under
    ``REMOTE_STEP_OVERHEAD_CEILING``, and a generic ``rehost`` that
    leases the ready warm spare host (``load`` + ``hello``) costs at
    most half a cold spawn of a factory-served host, which never leases
    the spare (in practice ~100x less; the generous ceiling absorbs
    runner noise, the recorded ratio tracks the truth).
    """
    from repro.legacy import remote as remote_module
    from repro.legacy.remote import RemoteComponent, RemotePolicy, rehost

    policy = RemotePolicy(step_deadline=30.0, spawn_timeout=60.0)

    def measure():
        local = railcab.correct_rear_shuttle(convoy_ticks=1)
        cycles = 400

        def time_local() -> float:
            local.reset()
            t0 = time.perf_counter()
            for _ in range(cycles):
                local.step(frozenset())
            per_call = (time.perf_counter() - t0) / cycles
            local.reset()
            return per_call

        with rehost(railcab.correct_rear_shuttle(convoy_ticks=1), policy) as remote:

            def time_remote() -> float:
                remote.reset()
                t0 = time.perf_counter()
                for _ in range(cycles):
                    remote.step(frozenset())
                per_call = (time.perf_counter() - t0) / cycles
                remote.reset()
                return per_call

            per_local = _best_of(time_local)
            per_remote = _best_of(time_remote)

        def time_cold_spawn() -> float:
            t0 = time.perf_counter()
            cold = RemoteComponent("repro.railcab:correct_rear_shuttle", policy=policy)
            elapsed = time.perf_counter() - t0
            cold.close()
            return elapsed

        cold_spawn = _best_of(time_cold_spawn)
        # A second generic launch: from here on a spare is always started.
        rehost(railcab.correct_rear_shuttle(convoy_ticks=1), policy).close()
        leases = []

        def time_warm_rehost() -> float:
            # Twice a cold spawn's time lets the spare finish importing.
            time.sleep(2 * cold_spawn)
            spare = remote_module._spare
            t0 = time.perf_counter()
            warm = rehost(railcab.correct_rear_shuttle(convoy_ticks=1), policy)
            elapsed = time.perf_counter() - t0
            leases.append(spare is not None and warm.pid == spare[1].pid)
            warm.close()
            return elapsed

        warm_rehost = _best_of(time_warm_rehost)
        return per_local, per_remote, cold_spawn, warm_rehost, leases

    sample = benchmark.pedantic(measure, rounds=1, iterations=1)
    for attempt in (1, 2):
        per_local, per_remote, cold_spawn, warm_rehost, leases = sample
        per_step_overhead = max(per_remote - per_local, 0.0)
        warm_vs_cold = warm_rehost / cold_spawn
        # Every timed warm launch leased the spare the previous one started.
        assert leases and all(leases), leases
        benchmark.extra_info.update(
            {
                "mode": "remote_overhead",
                "per_local_step_seconds": per_local,
                "per_remote_step_seconds": per_remote,
                "per_step_overhead_seconds": per_step_overhead,
                "cold_spawn_seconds": cold_spawn,
                "warm_rehost_seconds": warm_rehost,
                "warm_vs_cold_ratio": warm_vs_cold,
                "measurement_attempts": attempt,
            }
        )
        within_bounds = (
            per_step_overhead <= REMOTE_STEP_OVERHEAD_CEILING
            and warm_vs_cold <= WARM_VS_COLD_CEILING
        )
        if within_bounds:
            break
        if attempt == 1:
            sample = measure()  # retry once off-benchmark with fresh timings
            continue
        assert per_step_overhead <= REMOTE_STEP_OVERHEAD_CEILING, (
            f"warm per-step RPC overhead {per_step_overhead * 1e6:.0f}µs exceeds "
            f"the {REMOTE_STEP_OVERHEAD_CEILING * 1e6:.0f}µs ceiling on both "
            f"attempts (remote {per_remote * 1e6:.0f}µs vs local {per_local * 1e6:.0f}µs)"
        )
        assert warm_vs_cold <= WARM_VS_COLD_CEILING, (
            f"a warm-spare rehost ({warm_rehost * 1e3:.1f}ms) is {warm_vs_cold:.2f}x "
            f"a cold spawn ({cold_spawn * 1e3:.1f}ms) — the warm spare has "
            f"stopped paying for itself"
        )


def test_loop_incremental_multi_legacy(benchmark):
    """The n-ary product path: front+rear learned in parallel."""
    result = benchmark(lambda: _multi_synthesizer(incremental=True).run())
    assert result.verdict is Verdict.PROVEN
    assert result.iteration_count >= 8
    reference = _multi_synthesizer(incremental=False).run()
    assert reference.verdict is result.verdict
    assert reference.iteration_count == result.iteration_count
    benchmark.extra_info.update(_loop_extra_info(result))
    benchmark.extra_info["mode"] = "incremental_multi"
