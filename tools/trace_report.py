#!/usr/bin/env python3
"""Fold a recorded trace into a top-N self-time table.

Reads a trace written by ``python -m repro ... --trace FILE`` (either
format: JSONL events or Chrome trace-event JSON — the loader
auto-detects) and prints where the wall-clock went, per span name, with
child time subtracted::

    python tools/trace_report.py trace.jsonl
    python tools/trace_report.py trace.chrome.json --top 10
    python tools/trace_report.py --diff old.jsonl new.jsonl

The fold is :func:`repro.obs.fold_self_time`: spans nest by start-time
containment per track, a span's *self* time is its duration minus its
children's, and rows sort by self time descending.  ``--summary`` adds
the per-iteration phase table when the trace contains ``loop.iteration``
spans.  ``--diff OLD NEW`` compares two recordings of the same workload
span-name by span-name (:func:`repro.obs.fold_diff`): where
``benchmarks/e2e/compare.py`` says *that* a workload slowed down, the
fold diff says *which spans* absorbed the time.

Exit status: 0 on success, 2 on unusable input (missing file, not a
trace, or a trace with no spans) with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs import (
    fold_diff,
    fold_self_time,
    load_trace,
    render_fold_diff,
    render_fold_table,
    render_trace_summary,
)


def load_spans(path: str) -> list:
    """Load one trace or exit 2 with a one-line diagnosis.

    Three distinct failure modes get three distinct messages so the
    caller knows whether to fix the path, the file, or the run that
    produced it.
    """
    try:
        spans, _metrics = load_trace(path)
    except FileNotFoundError:
        print(f"trace_report: {path}: no such file", file=sys.stderr)
        raise SystemExit(2)
    except (ValueError, KeyError, TypeError) as error:
        print(
            f"trace_report: {path}: not a trace file "
            f"(expected --trace JSONL or Chrome trace-event JSON): {error}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if not spans:
        print(
            f"trace_report: {path}: no spans recorded "
            "(was the run traced with --trace or REPRO_TRACE?)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace_report",
        description="Top-N self-time fold of a repro --trace recording",
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="trace file (JSONL or Chrome trace-event JSON)",
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="show the N span names with the most self time (default: 20)",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="also print the per-iteration phase breakdown",
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two traces of the same workload: per-span self-time "
        "deltas sorted by magnitude, largest mover first",
    )
    args = parser.parse_args(argv)

    if args.diff is not None:
        if args.trace is not None:
            parser.error("give either one trace or --diff OLD NEW, not both")
        old_path, new_path = args.diff
        old_rows = fold_self_time(load_spans(old_path))
        new_rows = fold_self_time(load_spans(new_path))
        print(f"self-time diff: {old_path} -> {new_path}")
        print(render_fold_diff(fold_diff(old_rows, new_rows), limit=args.top))
        return 0

    if args.trace is None:
        parser.error("a trace file (or --diff OLD NEW) is required")
    spans = load_spans(args.trace)
    print(render_fold_table(fold_self_time(spans), limit=args.top))
    if args.summary:
        print()
        print(render_trace_summary(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
