#!/usr/bin/env python3
"""Cross-PR bench trend: append a point, flag per-section regressions.

``tools/bench_report.py`` normalizes one run's benchmark output into
``BENCH_loop.json``; this tool strings those runs together.  Each
invocation appends one *trend point* — the tracked ratios of every
section, keyed by git revision and machine fingerprint — to a trend
file, then checks the new point against the rolling window of previous
points from the *same machine*::

    python tools/bench_trend.py BENCH_loop.json                       # append + check
    python tools/bench_trend.py BENCH_loop.json --trend BENCH_trend.json --rev abc123
    python tools/bench_trend.py --check-only --trend BENCH_trend.json # re-check latest

A metric regresses when it falls outside ``--tolerance`` (default 15%)
of the window median in its *bad* direction — speedup ratios going
down, overhead fractions going up.  Overhead fractions additionally
get an absolute slack (0.005) so a 0.2% overhead drifting to 0.3% on a
noisy runner does not page anyone.  Fewer than ``--min-window`` prior
same-machine points means "insufficient history": the point is
recorded and the check passes.

Exit status: 0 = appended (and check passed or was skipped), 1 = at
least one tracked metric regressed, 2 = unusable input.

When a regression fires, the next question is *where the time went*;
answer it with ``python tools/trace_report.py --diff OLD NEW`` on
traces of the two revisions (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

TREND_SCHEMA = "repro.bench_trend/1"

#: Tracked metrics, dotted ``section.key`` form, by good direction.
#: Speedup ratios must not fall; overhead fractions must not climb.
HIGHER_BETTER = (
    "headline.speedup_min",
    "headline.speedup_median",
)
LOWER_BETTER = (
    "robust.robust_overhead_fraction",
    "traced.null_tracer_overhead_fraction",
    "traced.jsonl_tracer_overhead_fraction",
    "flight.null_flight_overhead_fraction",
    "flight.active_flight_overhead_fraction",
)

#: Absolute slack for lower-better fractions: tiny overheads are noisy
#: in relative terms, so a climb must also clear this much in absolute.
FRACTION_SLACK = 0.005


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def extract_point(report: dict, revision: str) -> dict:
    """One trend point: the tracked metrics present in this report."""
    sections: dict[str, dict] = {}
    for dotted in (*HIGHER_BETTER, *LOWER_BETTER):
        section, key = dotted.split(".", 1)
        value = (report.get(section) or {}).get(key)
        if isinstance(value, (int, float)):
            sections.setdefault(section, {})[key] = value
    return {
        "revision": revision,
        "machine": report.get("machine") or {},
        "sections": sections,
    }


def machine_key(point: dict) -> tuple:
    machine = point.get("machine") or {}
    return tuple(sorted((str(k), str(v)) for k, v in machine.items()))


def metric_value(point: dict, dotted: str):
    section, key = dotted.split(".", 1)
    return (point.get("sections") or {}).get(section, {}).get(key)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def check_point(
    points: list[dict],
    *,
    window: int,
    min_window: int,
    tolerance: float,
) -> list[str]:
    """Regression messages for the newest point vs its rolling window.

    The window holds the most recent prior points whose machine
    fingerprint matches the newest point's — cross-machine ratios are
    not comparable and never mix.
    """
    latest = points[-1]
    history = [
        point for point in points[:-1] if machine_key(point) == machine_key(latest)
    ][-window:]
    if len(history) < min_window:
        print(
            f"bench trend: {len(history)} prior same-machine point(s), "
            f"need {min_window} — regression check skipped"
        )
        return []

    regressions = []
    for dotted in HIGHER_BETTER:
        value = metric_value(latest, dotted)
        baseline = [v for v in (metric_value(p, dotted) for p in history) if v is not None]
        if value is None or not baseline:
            continue
        floor = median(baseline) * (1 - tolerance)
        if value < floor:
            regressions.append(
                f"{dotted}: {value:.3f} fell below {floor:.3f} "
                f"(window median {median(baseline):.3f} over {len(baseline)} runs)"
            )
    for dotted in LOWER_BETTER:
        value = metric_value(latest, dotted)
        baseline = [v for v in (metric_value(p, dotted) for p in history) if v is not None]
        if value is None or not baseline:
            continue
        ceiling = median(baseline) * (1 + tolerance) + FRACTION_SLACK
        if value > ceiling:
            regressions.append(
                f"{dotted}: {value:.4f} climbed above {ceiling:.4f} "
                f"(window median {median(baseline):.4f} over {len(baseline)} runs)"
            )
    return regressions


def render_trend(points: list[dict], *, last: int = 6) -> str:
    """A compact per-revision table of the headline trend metrics."""
    shown = points[-last:]
    columns = (
        ("headline.speedup_min", "headline"),
        ("headline.speedup_median", "median"),
        ("robust.robust_overhead_fraction", "robust%"),
        ("flight.null_flight_overhead_fraction", "flight%"),
    )
    lines = [
        "{:<12} {:>9} {:>9} {:>8} {:>8}".format(
            "revision", *(title for _, title in columns)
        )
    ]
    for point in shown:
        cells = []
        for dotted, _ in columns:
            value = metric_value(point, dotted)
            if value is None:
                cells.append("-")
            elif dotted.endswith("fraction"):
                cells.append(f"{100 * value:.2f}")
            else:
                cells.append(f"{value:.2f}x")
        lines.append(
            "{:<12} {:>9} {:>9} {:>8} {:>8}".format(
                str(point.get("revision", "?"))[:12], *cells
            )
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report", type=pathlib.Path, nargs="?", default=None,
        help="normalized BENCH_loop.json to append (omit with --check-only)",
    )
    parser.add_argument(
        "--trend", type=pathlib.Path, default=pathlib.Path("BENCH_trend.json"),
        help="trend file to append to / check (default: BENCH_trend.json)",
    )
    parser.add_argument(
        "--rev", default=None,
        help="revision label for the new point (default: git rev-parse --short HEAD)",
    )
    parser.add_argument(
        "--window", type=int, default=5,
        help="rolling window size of prior same-machine points (default: 5)",
    )
    parser.add_argument(
        "--min-window", type=int, default=2,
        help="minimum prior same-machine points before checking (default: 2)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed relative drift from the window median (default: 0.15)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="append the point without running the regression check",
    )
    parser.add_argument(
        "--check-only", action="store_true",
        help="check the latest recorded point without appending",
    )
    args = parser.parse_args(argv)

    if args.trend.exists():
        try:
            trend = json.loads(args.trend.read_text())
        except json.JSONDecodeError as error:
            print(f"bench trend: {args.trend}: not JSON: {error}", file=sys.stderr)
            return 2
        points = trend.get("points")
        if not isinstance(points, list):
            print(f"bench trend: {args.trend}: no 'points' list", file=sys.stderr)
            return 2
    else:
        points = []

    if args.check_only:
        if args.report is not None:
            parser.error("--check-only takes no report argument")
        if not points:
            print(f"bench trend: {args.trend}: no points to check", file=sys.stderr)
            return 2
    else:
        if args.report is None:
            parser.error("a BENCH_loop.json report is required (or --check-only)")
        try:
            report = json.loads(args.report.read_text())
        except FileNotFoundError:
            print(f"bench trend: {args.report}: no such file", file=sys.stderr)
            return 2
        except json.JSONDecodeError as error:
            print(f"bench trend: {args.report}: not JSON: {error}", file=sys.stderr)
            return 2
        point = extract_point(report, args.rev or git_revision())
        if not point["sections"]:
            print(
                f"bench trend: {args.report}: no tracked metrics found "
                "(is this a tools/bench_report.py output?)",
                file=sys.stderr,
            )
            return 2
        # Re-running on the same revision + machine replaces the old
        # point instead of stacking duplicates that would bias the
        # window median toward one flaky commit.
        points = [
            existing
            for existing in points
            if not (
                existing.get("revision") == point["revision"]
                and machine_key(existing) == machine_key(point)
            )
        ]
        points.append(point)
        args.trend.parent.mkdir(parents=True, exist_ok=True)
        args.trend.write_text(
            json.dumps({"schema": TREND_SCHEMA, "points": points}, indent=2, sort_keys=True)
            + "\n"
        )
        print(f"bench trend: recorded {point['revision']} -> {args.trend} "
              f"({len(points)} point(s))")

    print(render_trend(points))
    if args.no_check:
        return 0
    regressions = check_point(
        points,
        window=args.window,
        min_window=args.min_window,
        tolerance=args.tolerance,
    )
    if regressions:
        for message in regressions:
            print(f"bench trend REGRESSION: {message}", file=sys.stderr)
        print(
            "bench trend: attribute with "
            "'python tools/trace_report.py --diff OLD NEW' traces of the two revisions",
            file=sys.stderr,
        )
        return 1
    print("bench trend OK: no tracked metric regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
