"""Command-line demo: ``python -m repro``.

Runs the paper's running example (or the multi-legacy / learning
comparison scenarios) and prints the artifacts in the paper's notation.

Examples::

    python -m repro railcab --shuttle faulty
    python -m repro railcab --shuttle correct --counterexamples 3
    python -m repro multi --front forgetful
    python -m repro compare --extra-states 2 5 10
"""

from __future__ import annotations

import argparse
import sys

from . import railcab
from .synthesis import (
    IntegrationSynthesizer,
    MultiLegacySynthesizer,
    SynthesisSettings,
    render_counterexample_listing,
    render_iteration_table,
    render_markdown_report,
    summarize,
)


def _settings(args: argparse.Namespace) -> SynthesisSettings:
    """The one place CLI flags (and their env fallbacks) become settings.

    Flags left at their defaults defer to the environment knobs
    (``REPRO_TRACE``, ``REPRO_BLACKBOX``, ``REPRO_TEST_RETRIES``,
    ``REPRO_FAULT_SEED``, ``REPRO_REMOTE``) inside
    :class:`SynthesisSettings` resolution.
    """
    tracer = None
    trace_path = getattr(args, "trace", None)
    blackbox_dir = getattr(args, "blackbox", None)
    if trace_path or blackbox_dir or getattr(args, "progress", False):
        from .obs import FlightRecorder, TraceFile, Tracer, TtyProgressSink, env_sinks

        # Each flag wins over its variable; the variables still supply
        # the sinks no flag asked for.
        tracer = Tracer(
            TraceFile(trace_path, format=args.trace_format) if trace_path else None,
            FlightRecorder(blackbox_dir) if blackbox_dir else None,
            TtyProgressSink() if args.progress else None,
            *env_sinks(trace=not trace_path, blackbox=not blackbox_dir),
        )
        args._tracer = tracer
    retry_policy = None
    test_retries = getattr(args, "test_retries", None)
    test_timeout = getattr(args, "test_timeout", None)
    if test_retries is not None or test_timeout is not None:
        from .testing import RetryPolicy

        base = RetryPolicy.from_env()
        retry_policy = RetryPolicy(
            max_attempts=(base.max_attempts if test_retries is None else test_retries + 1),
            replay_attempts=base.replay_attempts,
            record_rounds=base.record_rounds,
            test_timeout=test_timeout,
        )
    fault_profile = None
    fault_seed = getattr(args, "fault_seed", None)
    if fault_seed is not None:
        from .testing import FaultProfile

        fault_profile = FaultProfile.mild(fault_seed)
    remote = None
    step_deadline = getattr(args, "remote_step_deadline", None)
    if step_deadline is not None:
        from .legacy.remote import RemotePolicy

        remote = RemotePolicy(step_deadline=step_deadline)
    elif getattr(args, "remote", False):
        remote = True
    return SynthesisSettings(
        max_iterations=getattr(args, "max_iterations", None),
        counterexamples_per_iteration=getattr(args, "counterexamples", 1),
        retry_policy=retry_policy,
        fault_profile=fault_profile,
        remote=remote,
        tracer=tracer,
    )


def _export_trace(args: argparse.Namespace) -> None:
    """Close the CLI's stream: end the progress line, write the trace."""
    tracer = getattr(args, "_tracer", None)
    if tracer is None:
        return
    tracer.close()
    if args.trace:
        print(f"\ntrace ({args.trace_format}) written to {args.trace}")
    for sink in tracer.sinks:
        if getattr(sink, "last_path", None) is not None:
            print(f"blackbox dumped to {sink.last_path} ({sink.dumps} anomalies)")


def _add_loop_flags(parser: argparse.ArgumentParser) -> None:
    """The shared loop-tuning flag group (feeds :func:`_settings`)."""
    group = parser.add_argument_group("synthesis loop")
    group.add_argument(
        "--max-iterations", type=int, default=None, metavar="N",
        help="iteration budget (default: the entry point's own default)",
    )
    group.add_argument(
        "--test-retries", type=int, default=None, metavar="N",
        help="retry a failed/timed-out test execution up to N times "
        "(default: $REPRO_TEST_RETRIES or 2; see docs/robustness.md)",
    )
    group.add_argument(
        "--test-timeout", type=float, default=None, metavar="SECONDS",
        help="per-test wall-clock deadline; expiry counts as a retryable "
        "timeout (default: none)",
    )
    group.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="inject seed-driven faults into the component under test "
        "(the mild chaos profile; $REPRO_FAULT_SEED works without the "
        "flag; verdicts stay identical to the fault-free run)",
    )
    group.add_argument(
        "--remote", action="store_true", default=False,
        help="run the component under test out of process behind the "
        "supervised subprocess adapter ($REPRO_REMOTE works without "
        "the flag; verdicts stay identical to in-process runs — see "
        "docs/remote.md); with --fault-seed, faults are injected "
        "inside the host process",
    )
    group.add_argument(
        "--remote-step-deadline", type=float, default=None, metavar="SECONDS",
        help="per-operation wall-clock deadline for the remote host; "
        "expiry SIGKILLs the process and counts as a retryable "
        "timeout (default: 5.0; implies --remote)",
    )
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span trace of the run to FILE "
        "(see docs/observability.md; $REPRO_TRACE works without the flag)",
    )
    group.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="trace file format: jsonl events or a Chrome/Perfetto "
        "trace-event JSON (default: jsonl)",
    )
    group.add_argument(
        "--blackbox", metavar="DIR", default=None,
        help="arm the flight recorder: on any anomaly dump a "
        "self-contained blackbox.json into DIR "
        "(see docs/observability.md; $REPRO_BLACKBOX works without "
        "the flag)",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="render a live single-line progress status to stderr "
        "while the loop runs",
    )

SHUTTLES = {
    "correct": lambda: railcab.correct_rear_shuttle(convoy_ticks=1),
    "faulty": railcab.faulty_rear_shuttle,
    "overbuilt": lambda: railcab.overbuilt_rear_shuttle(extra_states=10),
}

FRONTS = {
    "correct": railcab.correct_front_shuttle,
    "forgetful": railcab.forgetful_front_shuttle,
}


def _run_railcab(args: argparse.Namespace) -> int:
    component = SHUTTLES[args.shuttle]()
    synthesizer = IntegrationSynthesizer(
        railcab.front_role_automaton(),
        component,
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        settings=_settings(args),
        port="rearRole",
    )
    result = synthesizer.run()
    print(summarize(result))
    print()
    print(render_iteration_table(result))
    if args.report:
        from .legacy import interface_of

        report = render_markdown_report(
            result,
            universe=interface_of(component).universe(),
            legacy_inputs=railcab.FRONT_TO_REAR,
            legacy_outputs=railcab.REAR_TO_FRONT,
            title=f"RailCab integration: {args.shuttle} shuttle",
        )
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"\nmarkdown report written to {args.report}")
    if result.violation_witness is not None:
        print("\nviolation witness:")
        print(
            render_counterexample_listing(
                result.violation_witness,
                legacy_inputs=railcab.FRONT_TO_REAR,
                legacy_outputs=railcab.REAR_TO_FRONT,
            )
        )
    _export_trace(args)
    return 0 if result.proven == (args.shuttle != "faulty") else 1


def _run_multi(args: argparse.Namespace) -> int:
    synthesizer = MultiLegacySynthesizer(
        None,
        [FRONTS[args.front](), railcab.correct_rear_shuttle(convoy_ticks=1)],
        railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
        settings=_settings(args),
    )
    result = synthesizer.run()
    print(f"verdict: {result.verdict.value}")
    print(f"iterations: {result.iteration_count}, tests: {result.total_tests}")
    for name, model in sorted(result.final_models.items()):
        print(
            f"  {name}: {len(model.states)} states, {len(model.transitions)} transitions, "
            f"{len(model.refusals)} refusals learned"
        )
    if result.violation_witness is not None:
        print(f"violation ({result.violation_kind}): {result.violation_witness}")
    _export_trace(args)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from .baselines import LStarLearner, MembershipOracle, PerfectEquivalenceOracle
    from .legacy import interface_of

    print(f"{'extra':>6} {'|M_r|':>6} {'ours tests':>11} {'ours learned':>13} {'L* member':>10}")
    for extra in args.extra_states:
        component = railcab.overbuilt_rear_shuttle(extra_states=extra)
        ours = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.overbuilt_rear_shuttle(extra_states=extra),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
        ).run()
        universe = interface_of(component).universe()
        learner = LStarLearner(
            MembershipOracle(railcab.overbuilt_rear_shuttle(extra_states=extra)),
            universe,
            PerfectEquivalenceOracle(component._hidden, universe),
        )
        learner.learn()
        print(
            f"{extra:>6} {component.state_bound:>6} {ours.total_tests:>11} "
            f"{ours.learned_states:>13} {learner.statistics.membership_queries:>10}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Legacy component integration via verification + testing (Giese et al.)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    railcab_parser = subparsers.add_parser("railcab", help="the paper's running example")
    railcab_parser.add_argument("--shuttle", choices=sorted(SHUTTLES), default="faulty")
    railcab_parser.add_argument(
        "--counterexamples", type=int, default=1, metavar="K",
        help="counterexamples tested per verification round",
    )
    railcab_parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write a markdown integration report to PATH",
    )
    _add_loop_flags(railcab_parser)
    railcab_parser.set_defaults(handler=_run_railcab)

    multi_parser = subparsers.add_parser("multi", help="two legacy shuttles (§7 extension)")
    multi_parser.add_argument("--front", choices=sorted(FRONTS), default="correct")
    _add_loop_flags(multi_parser)
    multi_parser.set_defaults(handler=_run_multi)

    compare_parser = subparsers.add_parser("compare", help="ours vs L* query counts")
    compare_parser.add_argument(
        "--extra-states", type=int, nargs="+", default=[2, 5, 10], metavar="N"
    )
    compare_parser.set_defaults(handler=_run_compare)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
