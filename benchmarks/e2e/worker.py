"""One benchmark round in a fresh process: set up, warm up, measure.

Started by ``run.py`` (never by hand) with one JSON argument naming the
workload, seed, round, time share and tracing mode, plus the monotonic
clock reading taken just before the process was spawned, so ``setup_s``
covers interpreter start, ``import repro``, input construction and the
warm-up call.  Prints one JSON line with the round's raw samples.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def probe() -> float:
    """A fixed pure-Python loop: tells machine drift from a regression."""
    begin = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return time.perf_counter() - begin


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def program_counts(report, floor: int) -> Counter:
    """The counters ``integrate()`` itself reports, summed over its results."""
    from workloads import results

    counts: Counter = Counter()
    states_max = 0
    for result in results(report):
        counts["iterations"] += result.iteration_count
        for record in result.iterations:
            counts["closure_reused"] += record.closure_groups_reused
            counts["closure_rebuilt"] += record.closure_groups_rebuilt
            counts["product_hits"] += record.product_hits
            counts["product_misses"] += record.product_misses
            counts["dirty_states"] += record.dirty_states
            counts["dense_iterations"] += record.composed_states >= floor
            counts["fixpoint_work"] += record.checker_fixpoint_work
            counts["tests"] += record.tests_executed
            counts["retries"] += record.test_retries
            counts["timeouts"] += record.test_timeouts
            counts["inconclusive"] += record.tests_inconclusive
            # The multi-legacy records carry no replay counter.
            counts["replays"] += getattr(record, "replays_executed", 0)
            states_max = max(states_max, record.composed_states)
        models = (
            result.final_models.values() if hasattr(result, "final_models") else [result.final_model]
        )
        for model in models:
            counts["learned_states"] += len(model.states)
            counts["learned_transitions"] += len(model.transitions)
            counts["learned_refusals"] += len(model.refusals)
    counts["states_max"] += states_max
    return counts


def measure(job: dict) -> dict:
    import workloads

    workload = job["workload"]
    pinned = workloads.load_expected()["workloads"][workload]
    batch = workloads.instances(workload)
    for instance in batch:
        entry = pinned.get(instance.name)
        if entry is None or entry["fingerprint"] != instance.fingerprint:
            print(
                f"{workload}: instance {instance.name!r} has fingerprint {instance.fingerprint}, "
                f"expected.json pins {entry and entry['fingerprint']}; the workload changed — "
                "re-derive expected.json with benchmarks/e2e/workloads.py",
                file=sys.stderr,
            )
            raise SystemExit(3)

    rng = random.Random(f"{job['seed']}:{job['round']}")
    attempted = failed = 0
    errors: list[str] = []

    def call(instance, arguments, runner):
        """One call on fresh inputs: (seconds, report or None); checks the verdict."""
        nonlocal attempted, failed
        attempted += 1
        begin = time.perf_counter()
        try:
            report = runner(workloads.run, arguments)
        except Exception:  # a failed call is counted, not fatal
            seconds = time.perf_counter() - begin
            failed += 1
            errors.append(f"{instance.name}: {traceback.format_exc(limit=3)}")
            return seconds, None
        seconds = time.perf_counter() - begin
        found = workloads.verdicts(report)
        if found != pinned[instance.name]["verdicts"]:
            failed += 1
            errors.append(f"{instance.name}: verdicts {found} != expected {pinned[instance.name]['verdicts']}")
        return seconds, report

    def plain(function, arguments):
        return function(arguments)

    warm = rng.choice(batch)
    call(warm, warm.build(), plain)  # warm-up: lazy init, first-call caches
    setup_s = time.monotonic() - job["spawned_at"]
    probe_s = probe()

    shims = None
    if job["trace"]:
        from repro.automata.interning import DENSE_STATE_FLOOR

        from shims import LayerShims, fold

        shims = LayerShims()
    durations: list[float] = []
    traced: list[float] = []
    layers: dict[str, list] = {}
    program: Counter = Counter()

    elapsed = last_pass = 0.0
    passes = 0
    # Whole passes only (every scenario equally often); stop at the pass
    # count nearest to the round's time share, but always measure one.
    while passes == 0 or elapsed + last_pass / 2 < job["share"]:
        order = rng.sample(batch, len(batch))
        # Tracing passes run the same order twice, shimmed and plain, in
        # alternating order, so the overhead compares identical inputs.
        if shims is None:
            modes = (False,)
        else:
            modes = (True, False) if (job["round"] + passes) % 2 == 0 else (False, True)
        pass_seconds = 0.0
        for shimmed in modes:
            with shims if shimmed else nullcontext():
                for instance in order:
                    # Built per call, not per pass: 80 live prebuilt
                    # scenarios made every full GC slower (+12% per pass).
                    # Building touches no shimmed entry point.
                    seconds, report = call(instance, instance.build(), shims.call if shimmed else plain)
                    pass_seconds += seconds
                    if not shimmed:
                        durations.append(seconds)
                        continue
                    traced.append(seconds)
                    for layer, (count, self_s, total) in fold(shims.take()).items():
                        row = layers.setdefault(layer, [0, 0.0, 0.0])
                        row[0] += count
                        row[1] += self_s
                        row[2] += total
                    if report is not None:
                        program += program_counts(report, DENSE_STATE_FLOOR)
        elapsed += pass_seconds
        last_pass = pass_seconds
        passes += 1

    return {
        "workload": workload,
        "round": job["round"],
        "setup_s": setup_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "calls": durations,
        "traced_calls": traced,
        "layers": layers,
        "program": dict(program),
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    try:
        import repro
    except ImportError as error:
        print(f"cannot import repro from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(measure(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
