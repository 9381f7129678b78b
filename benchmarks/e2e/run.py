"""End-to-end ``integrate()`` benchmark: five workloads, verdict-checked.

Usage (from the repository root; no install, no ``PYTHONPATH`` needed)::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                 [--seconds S] [--trace 0|1] [--smoke] [--out PATH]

Closed loop: one client process issues ``integrate()`` calls back to
back, no think time, no threads.  Each workload runs ``ROUNDS`` rounds;
every (workload, round) pair is a fresh subprocess (``worker.py``) and
rounds are interleaved round-robin across workloads, so machine drift
spreads over all of them.  A round builds its inputs untimed, makes one
warm-up call, then measures whole passes over the workload's instances
for about ``--seconds / ROUNDS`` seconds.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``README.md``).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every verdict matched ``expected.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("convoy-long", "convoy-multi", "scenario-mix", "dense-large", "convoy-remote")
ROUNDS = 5
#: Equal to ``run_seconds`` in ``BENCHMARK.json``.
DEFAULT_SECONDS = 10
#: Each workload's rounds must end well inside three minutes.
DEADLINE_SECONDS = 170

#: ``name -> (unit, better)`` of the gated, tracing-off metrics.
END_TO_END = {
    "verdict_s_p50": ("s", "lower"),
    "verdicts_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Layers, outermost first; ``shims.py`` times each one's entry point.
LAYERS = (
    "integration",
    "muml.verification",
    "synthesis.loop",
    "incremental.verifier",
    "incremental.closure",
    "incremental.product",
    "checker",
    "counterexample",
    "robust.execute",
    "replay",
    "learning",
    "remote.spawn",
    "remote.step",
)
#: Layers that only run on convoy-remote.  A seconds metric that reads
#: exactly zero on the other four workloads measures nothing, so these
#: report their call count and time share only.
REMOTE_LAYERS = ("remote.spawn", "remote.step")

#: ``name -> (unit, better, numerator, denominator)`` of the counts
#: ``integrate()`` reports; a denominator of ``None`` means per call.
PROGRAM_COUNTS = {
    "synthesis.loop.iterations": ("count", "lower", "iterations", None),
    "incremental.closure.reuse_ratio": ("fraction", "higher", "closure_reused", ("closure_reused", "closure_rebuilt")),
    "incremental.product.hit_ratio": ("fraction", "higher", "product_hits", ("product_hits", "product_misses")),
    "incremental.product.states_max": ("count", "lower", "states_max", None),
    "incremental.product.dirty_states": ("count", "lower", "dirty_states", None),
    "incremental.product.dense_frac": ("fraction", "lower", "dense_iterations", ("iterations",)),
    "checker.fixpoint_work": ("count", "lower", "fixpoint_work", None),
    "robust.execute.tests": ("count", "lower", "tests", None),
    "robust.execute.retries": ("count", "lower", "retries", None),
    "robust.execute.timeouts": ("count", "lower", "timeouts", None),
    "robust.execute.inconclusive": ("count", "lower", "inconclusive", None),
    "replay.replays": ("count", "lower", "replays", None),
    "learning.states": ("count", "lower", "learned_states", None),
    "learning.transitions": ("count", "lower", "learned_transitions", None),
    "learning.refusals": ("count", "lower", "learned_refusals", None),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """``name -> (unit, better)`` of every tracing-on metric."""
    metrics: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        if layer not in REMOTE_LAYERS:
            metrics[f"{layer}.self_s"] = ("s", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
        metrics[f"{layer}.self_frac"] = ("fraction", "lower")
    for name, (unit, better, _, _) in PROGRAM_COUNTS.items():
        metrics[name] = (unit, better)
    metrics["trace_overhead_frac"] = ("fraction", "lower")
    return metrics


# ------------------------------------------------------------ environment


def worker_env() -> tuple[dict[str, str], dict]:
    """The fixed environment of every workload process, and its record.

    ``REPRO_*`` variables (tracing, parallelism, fault seeds, remote
    mode, ...) each silently change what is measured, so all are dropped.
    Bytecode is never written, so every round imports ``repro`` the same
    way and the source tree stays untouched.
    """
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    fixed = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(ROOT / "src")}
    env.update(fixed)
    return env, {**fixed, "PYTHONPATH": "src", "dropped": dropped}


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_revision": _git_revision(),
    }


# ----------------------------------------------------------------- rounds


def run_round(job: dict, env: dict, deadline: float) -> dict | None:
    """Run one round in a fresh process; ``None`` when it did not finish."""
    job = {**job, "spawned_at": time.monotonic()}
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        output, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the worker and any component host
        process.communicate()
        print(f"{job['workload']} round {job['round']}: timed out", file=sys.stderr)
        return None
    if process.returncode != 0:
        print(f"{job['workload']} round {job['round']}: worker exited {process.returncode}", file=sys.stderr)
        return None
    return json.loads(output.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarize(rounds: list[dict], trace: bool) -> dict:
    """Metrics plus the recorded-but-ungated samples of one workload."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    calls = [seconds for r in rounds for seconds in r["calls"]]
    per_round = {
        "verdict_s_p50": [statistics.median(r["calls"]) for r in rounds],
        "verdicts_per_s": [len(r["calls"]) / sum(r["calls"]) for r in rounds],
        "setup_s": [r["setup_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    recorded = {
        "rounds": len(rounds),
        "calls": len(calls),
        "attempted": attempted,
        "failed": failed,
        "error_frac": failed / attempted,
        "verdict_s_quartiles": quartiles(calls),
        "per_round": per_round,
        "probe_s": [r["probe_s"] for r in rounds],
        "errors": [error for r in rounds for error in r["errors"]][:5],
    }
    if len(calls) >= 100:  # ten samples beyond the 90th percentile
        recorded["verdict_s_p90"] = statistics.quantiles(calls, n=10)[-1]
    if trace:
        values = layer_values(rounds, statistics.median(calls))
        units = per_layer_metrics()
    else:
        values = {
            "verdict_s_p50": statistics.median(calls),
            "verdicts_per_s": statistics.median(per_round["verdicts_per_s"]),
            "setup_s": statistics.median(per_round["setup_s"]),
            "peak_rss_mb": statistics.median(per_round["peak_rss_mb"]),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    return {"metrics": metrics, "recorded": recorded}


def layer_values(rounds: list[dict], untraced_p50: float) -> dict[str, float]:
    traced = [seconds for r in rounds for seconds in r["traced_calls"]]
    totals: dict[str, list] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    program: dict[str, int] = {}
    for r in rounds:
        for layer, row in r["layers"].items():
            for index, value in enumerate(row):
                totals[layer][index] += value
        for name, value in r["program"].items():
            program[name] = program.get(name, 0) + value
    count = len(traced)
    wall = totals["integration"][2]
    values: dict[str, float] = {}
    for layer, (calls, self_s, _) in totals.items():
        values[f"{layer}.self_s"] = self_s / count
        values[f"{layer}.calls"] = calls / count
        values[f"{layer}.self_frac"] = self_s / wall
    for name, (_, _, numerator, denominator) in PROGRAM_COUNTS.items():
        base = count if denominator is None else sum(program.get(key, 0) for key in denominator)
        values[name] = program.get(numerator, 0) / base if base else 0.0
    values["trace_overhead_frac"] = statistics.median(traced) / untraced_p50 - 1.0
    return values


def render(workload: str, summary: dict) -> str:
    recorded = summary["recorded"]
    lines = [
        f"{workload}: {recorded['rounds']} round(s), {recorded['calls']} measured call(s), "
        f"{recorded['failed']} of {recorded['attempted']} failed"
    ]
    for name, metric in summary["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(f"  {'error_frac':<36} {recorded['error_frac']:>14.6g} fraction")
    q1, q2, q3 = recorded["verdict_s_quartiles"]
    lines.append(f"  verdict_s quartiles {q1:.6g} / {q2:.6g} / {q3:.6g} s")
    if "verdict_s_p90" in recorded:
        lines.append(f"  verdict_s_p90 {recorded['verdict_s_p90']:.6g} s")
    lines.append("  probe_s per round " + " ".join(f"{value:.4f}" for value in recorded["probe_s"]))
    for error in recorded["errors"]:
        lines.append(f"  ERROR {error.strip()}")
    return "\n".join(lines)


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of one pass per workload")
    parser.add_argument("--out", help="write the full report (samples, machine) as JSON")
    args = parser.parse_args(argv)
    workloads = tuple(dict.fromkeys(args.workload or WORKLOADS))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rounds = 1 if args.smoke else ROUNDS
    share = 0.0 if args.smoke else args.seconds / rounds
    env, env_record = worker_env()
    deadline = time.monotonic() + DEADLINE_SECONDS * len(workloads)
    samples: dict[str, list[dict]] = {workload: [] for workload in workloads}
    for index in range(rounds):
        for workload in workloads:
            job = {"workload": workload, "seed": args.seed, "round": index, "share": share, "trace": args.trace}
            result = run_round(job, env, deadline)
            if result is None:
                return 2
            samples[workload].append(result)

    summaries = {workload: summarize(samples[workload], bool(args.trace)) for workload in workloads}
    for workload, summary in summaries.items():
        print(render(workload, summary))
    if args.out:
        report = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "machine": machine(),
            "environment": env_record,
            "workloads": summaries,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    attempted = sum(s["recorded"]["attempted"] for s in summaries.values())
    failed = sum(s["recorded"]["failed"] for s in summaries.values())
    if len(workloads) == 1:
        metrics = summaries[workloads[0]]["metrics"]
    else:
        metrics = {workload: summary["metrics"] for workload, summary in summaries.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
