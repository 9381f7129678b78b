#!/usr/bin/env python3
"""Run the incremental-loop benchmarks and write ``BENCH_loop.json``.

Drives ``benchmarks/bench_incremental_loop.py`` under pytest-benchmark
with ``--benchmark-json``, then normalizes the raw report into the
compact, diffable shape the repository tracks::

    python tools/bench_report.py [--output BENCH_loop.json] [--keep-raw PATH]

The normalized report records, per benchmark: wall-time statistics
(min/median/mean/stddev, rounds), the synthesis-loop shape (iterations,
composed product sizes), the engine's work counters (closure groups
reused/rebuilt, product cache hits/misses, dirty and affected region
sizes, checker fixpoint work), and — for the comparison benchmark — the
measured incremental-vs-full speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = (REPO_ROOT / "benchmarks" / "bench_incremental_loop.py",)

#: Wall-time statistics copied verbatim from pytest-benchmark.
_STATS = ("min", "max", "mean", "median", "stddev", "rounds", "iterations")


def run_benchmarks(raw_path: pathlib.Path) -> None:
    """Execute the bench modules, writing pytest-benchmark's raw JSON."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        *(str(path) for path in BENCH_FILES),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={raw_path}",
    ]
    env_src = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = env_src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if completed.returncode != 0:
        raise SystemExit(f"benchmark run failed with exit code {completed.returncode}")


def normalize(raw: dict) -> dict:
    """Flatten the pytest-benchmark report into the tracked shape."""
    report: dict = {
        "machine": {
            "python": raw.get("machine_info", {}).get("python_version"),
            "cpu": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
            "system": raw.get("machine_info", {}).get("system"),
        },
        "benchmarks": {},
    }
    for bench in raw.get("benchmarks", ()):
        stats = bench.get("stats", {})
        entry = {
            "wall_time_seconds": {key: stats.get(key) for key in _STATS},
            **bench.get("extra_info", {}),
        }
        report["benchmarks"][bench["name"]] = entry

    speedup = report["benchmarks"].get("test_incremental_speedup_over_full_recompose")
    if speedup is not None:
        report["headline"] = {
            "speedup_min": speedup.get("speedup_min"),
            "speedup_median": speedup.get("speedup_median"),
            "iterations": speedup.get("iterations"),
            "convoy_ticks": speedup.get("convoy_ticks"),
        }
    robust = report["benchmarks"].get("test_robust_overhead_guard")
    if robust is not None:
        report["robust"] = {
            "tests_per_run": robust.get("tests_per_run"),
            "per_raw_execute_seconds": robust.get("per_raw_execute_seconds"),
            "per_supervised_execute_seconds": robust.get("per_supervised_execute_seconds"),
            "per_test_overhead_seconds": robust.get("per_test_overhead_seconds"),
            "robust_overhead_fraction": robust.get("robust_overhead_fraction"),
            "loop_seconds_min": robust.get("loop_seconds_min"),
        }
    remote = report["benchmarks"].get("test_remote_overhead_guard")
    if remote is not None:
        report["remote"] = {
            "per_local_step_seconds": remote.get("per_local_step_seconds"),
            "per_remote_step_seconds": remote.get("per_remote_step_seconds"),
            "per_step_overhead_seconds": remote.get("per_step_overhead_seconds"),
            "cold_spawn_seconds": remote.get("cold_spawn_seconds"),
            "warm_rehost_seconds": remote.get("warm_rehost_seconds"),
            "warm_vs_cold_ratio": remote.get("warm_vs_cold_ratio"),
        }
    flight = report["benchmarks"].get("test_flight_recorder_overhead_guard")
    if flight is not None:
        report["flight"] = {
            "events_per_run": flight.get("events_per_run"),
            "per_null_emit_seconds": flight.get("per_null_emit_seconds"),
            "null_flight_overhead_fraction": flight.get("null_flight_overhead_fraction"),
            "active_flight_overhead_fraction": flight.get(
                "active_flight_overhead_fraction"
            ),
            "active_vs_null_best_paired": flight.get("active_vs_null_best_paired"),
            "active_vs_null_min_ratio": flight.get("active_vs_null_min_ratio"),
            "null_loop_seconds_min": flight.get("null_loop_seconds_min"),
            "active_loop_seconds_min": flight.get("active_loop_seconds_min"),
        }
    traced = report["benchmarks"].get("test_tracing_overhead_guard")
    if traced is not None:
        report["traced"] = {
            "spans_per_run": traced.get("spans_per_run"),
            "per_null_span_seconds": traced.get("per_null_span_seconds"),
            "per_active_span_seconds": traced.get("per_active_span_seconds"),
            "null_tracer_overhead_fraction": traced.get("null_tracer_overhead_fraction"),
            "jsonl_tracer_overhead_fraction": traced.get("jsonl_tracer_overhead_fraction"),
            "jsonl_vs_null_best_paired": traced.get("jsonl_vs_null_best_paired"),
            "jsonl_vs_null_min_ratio": traced.get("jsonl_vs_null_min_ratio"),
            "null_loop_seconds_min": traced.get("null_loop_seconds_min"),
            "jsonl_loop_seconds_min": traced.get("jsonl_loop_seconds_min"),
        }
    return report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_loop.json",
        help="where to write the normalized report (default: BENCH_loop.json)",
    )
    parser.add_argument(
        "--keep-raw",
        type=pathlib.Path,
        default=None,
        help="also keep pytest-benchmark's raw JSON at this path",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        raw_path = args.keep_raw or pathlib.Path(tmp) / "bench_raw.json"
        run_benchmarks(raw_path)
        raw = json.loads(raw_path.read_text())

    report = normalize(raw)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    headline = report.get("headline", {})
    if headline.get("speedup_min") is not None:
        print(
            f"wrote {args.output}: incremental speedup "
            f"{headline['speedup_min']:.2f}x (min) / {headline['speedup_median']:.2f}x (median) "
            f"over {headline['iterations']} loop iterations"
        )
    else:
        print(f"wrote {args.output}")
    robust = report.get("robust", {})
    if robust.get("robust_overhead_fraction") is not None:
        print(
            f"robust: fault-free supervised-execution overhead "
            f"{robust['robust_overhead_fraction']:.2%} of loop time "
            f"({robust['tests_per_run']} tests × "
            f"{robust['per_test_overhead_seconds'] * 1e6:.1f}µs)"
        )
    remote = report.get("remote", {})
    if remote.get("per_step_overhead_seconds") is not None:
        print(
            f"remote: warm per-step RPC overhead "
            f"{remote['per_step_overhead_seconds'] * 1e6:.0f}µs "
            f"(local {remote['per_local_step_seconds'] * 1e6:.0f}µs → remote "
            f"{remote['per_remote_step_seconds'] * 1e6:.0f}µs), warm-spare rehost "
            f"{remote['warm_rehost_seconds'] * 1e3:.1f}ms vs cold spawn "
            f"{remote['cold_spawn_seconds'] * 1e3:.1f}ms "
            f"({remote['warm_vs_cold_ratio']:.3f}x)"
        )
    flight = report.get("flight", {})
    if flight.get("null_flight_overhead_fraction") is not None:
        print(
            f"flight: null recorder overhead "
            f"{flight['null_flight_overhead_fraction']:.4%} of loop time, "
            f"active ring {flight['active_flight_overhead_fraction']:.2%} "
            f"({flight['events_per_run']} events; end-to-end min-vs-min "
            f"{flight['active_vs_null_min_ratio']:.3f}x)"
        )
    traced = report.get("traced", {})
    if traced.get("null_tracer_overhead_fraction") is not None:
        print(
            f"traced: NullTracer overhead {traced['null_tracer_overhead_fraction']:.4%} "
            f"of loop time, JSONL streaming {traced['jsonl_tracer_overhead_fraction']:.2%} "
            f"({traced['spans_per_run']} spans; end-to-end min-vs-min "
            f"{traced['jsonl_vs_null_min_ratio']:.3f}x)"
        )


if __name__ == "__main__":
    main()
