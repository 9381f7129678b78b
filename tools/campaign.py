#!/usr/bin/env python3
"""Run the randomized conformance campaign.

Generates ``--count`` seeded scenarios with
:func:`repro.testing.generate_scenario`, executes each through
``integrate()`` across the configuration matrix (fault-free and mild
fault injection), and asserts verdict agreement with full-composition
model checking — plus, on a subsample, with the §6 L*/BBC baselines::

    PYTHONPATH=src python tools/campaign.py --count 1000 --report out.json
    PYTHONPATH=src python tools/campaign.py --count 50 --profile tiny   # PR smoke

Any disagreement is minimized by the delta-debugging shrinker and
written as a repr-stable fixture into ``--fixtures-dir`` (default
``tests/fixtures/scenarios/``, filename ``shrunk-<fingerprint>.json``)
so it can be committed as a regression test; the exit status is the
number of failing scenarios (0 = campaign passed).  Baseline BBC false
alarms (``violation`` against a property-only truth of ``proven``) are
*explained* — BBC lacks quiescence observations, see
``docs/conformance.md`` — and are counted separately, not as failures.

Every scenario is independently reproducible from its seed::

    PYTHONPATH=src python tools/campaign.py --only-seed 12 --baselines-every 1
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import ModelError, SynthesisError  # noqa: E402
from repro.testing import (  # noqa: E402
    build_scenario,
    default_matrix,
    evaluate_scenario,
    generate_scenario,
    shrink_scenario,
    spec_fingerprint,
)
from repro.obs import FlightRecorder, Tracer, env_sinks  # noqa: E402
from repro.testing.shrink import disagreement_predicate  # noqa: E402


def dump_blackbox(directory, scenario, evaluation, record) -> pathlib.Path | None:
    """Dump one per-seed blackbox for a disagreeing scenario.

    The campaign has no single loop to arm a recorder inside (each
    scenario runs the whole config matrix), so the blackbox here is a
    post-hoc anomaly dump: the scenario's identity, the disagreement
    rows, and the per-config summary — enough to replay with
    ``--only-seed`` and diff against a healthy run.
    """
    recorder = FlightRecorder(directory, label=f"seed-{scenario.spec.seed}")
    stream = Tracer(recorder)
    stream.event("campaign.scenario", **{
        key: record[key] for key in ("seed", "fingerprint", "slots", "joint", "plants")
    })
    for entry in evaluation.disagreements:
        stream.event("campaign.disagreement", entry=entry)
    stream.anomaly(
        "campaign_disagreement",
        seed=scenario.spec.seed,
        fingerprint=record["fingerprint"],
        disagreements=list(evaluation.disagreements),
        degraded=list(evaluation.degraded),
        truth=record["truth"],
    )
    return recorder.last_path


def write_fixture(spec, disagreements, directory: pathlib.Path) -> pathlib.Path:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": 1,
        "name": spec.name,
        "reason": "campaign disagreement (auto-shrunk); verify before committing",
        "found": {"generator_seed": spec.seed, "disagreements": list(disagreements)},
        "spec": spec.to_dict(),
    }
    path = directory / f"shrunk-{spec_fingerprint(spec)}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=50, help="scenarios to run")
    parser.add_argument("--start-seed", type=int, default=1, help="first generator seed")
    parser.add_argument("--only-seed", type=int, default=None, help="run one seed and exit")
    parser.add_argument(
        "--profile",
        choices=("default", "tiny"),
        default="default",
        help="size envelope (default includes scenarios beyond 2048 product states)",
    )
    parser.add_argument(
        "--baselines-every",
        type=int,
        default=10,
        help="cross-check L*/BBC on every N-th scenario (0 = never)",
    )
    parser.add_argument(
        "--fixtures-dir",
        type=pathlib.Path,
        default=REPO_ROOT / "tests" / "fixtures" / "scenarios",
        help="where shrunk disagreement fixtures are written",
    )
    parser.add_argument("--report", type=pathlib.Path, default=None, help="JSON report path")
    parser.add_argument(
        "--blackbox",
        type=pathlib.Path,
        default=None,
        help="dump a per-seed blackbox-seed-N.json for every disagreement "
        "into this directory ($REPRO_BLACKBOX works without the flag)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="record disagreements without shrinking"
    )
    arguments = parser.parse_args(argv)
    blackbox_dir = arguments.blackbox
    if blackbox_dir is None:
        # $REPRO_BLACKBOX, checked by the one env resolver; the campaign
        # labels its own per-seed recorders in that directory.
        for ring in env_sinks(trace=False):
            blackbox_dir = ring.directory

    if arguments.only_seed is not None:
        seeds = [arguments.only_seed]
    else:
        seeds = list(range(arguments.start_seed, arguments.start_seed + arguments.count))

    began = time.time()
    rows = []
    failures = 0
    false_alarms = 0
    degraded = 0
    truth_counts = {"proven": 0, "violation": 0}
    for position, seed in enumerate(seeds):
        scenario = generate_scenario(seed, profile=arguments.profile)
        with_baselines = (
            arguments.baselines_every > 0 and position % arguments.baselines_every == 0
        )
        evaluation = evaluate_scenario(
            scenario, default_matrix(seed), with_baselines=with_baselines
        )
        truth_counts[evaluation.truth["scenario"]] += 1
        degraded += len(evaluation.degraded)
        false_alarms += sum(
            1
            for row in evaluation.baselines.values()
            if row.get("bbc_false_alarm") == "yes"
        )
        record = {
            "seed": seed,
            "fingerprint": spec_fingerprint(scenario.spec),
            "slots": len(scenario.spec.slots),
            "joint": scenario.spec.joint,
            "plants": [slot.plant for slot in scenario.spec.slots],
            "truth": evaluation.truth,
            "seconds": round(sum(o.seconds for o in evaluation.outcomes), 4),
            "disagreements": list(evaluation.disagreements),
            "degraded": list(evaluation.degraded),
        }
        if with_baselines:
            record["baselines"] = evaluation.baselines
        rows.append(record)

        if evaluation.disagreements:
            failures += 1
            print(f"[seed {seed}] DISAGREEMENT:", file=sys.stderr)
            for entry in evaluation.disagreements:
                print(f"  - {entry}", file=sys.stderr)
            if blackbox_dir is not None:
                box = dump_blackbox(blackbox_dir, scenario, evaluation, record)
                print(f"  blackbox: {box}", file=sys.stderr)
                record["blackbox"] = str(box)
            if not arguments.no_shrink:
                try:
                    shrunk = shrink_scenario(
                        scenario.spec,
                        disagreement_predicate(
                            default_matrix(seed), with_baselines=with_baselines
                        ),
                    )
                    path = write_fixture(
                        shrunk, evaluation.disagreements, arguments.fixtures_dir
                    )
                    print(f"  shrunk fixture: {path}", file=sys.stderr)
                    record["fixture"] = str(path)
                except (ModelError, SynthesisError) as error:
                    print(f"  shrink failed: {error}", file=sys.stderr)

        if (position + 1) % 100 == 0 or position + 1 == len(seeds):
            print(
                f"{position + 1}/{len(seeds)} scenarios, {failures} failing, "
                f"{false_alarms} explained bbc false alarms, "
                f"{degraded} sound chaos degradations, "
                f"{time.time() - began:.0f}s",
                flush=True,
            )

    report = {
        "count": len(seeds),
        "start_seed": seeds[0],
        "profile": arguments.profile,
        "failures": failures,
        "bbc_false_alarms": false_alarms,
        "chaos_degradations": degraded,
        "truth": truth_counts,
        "seconds": round(time.time() - began, 1),
        "scenarios": rows,
    }
    if arguments.report is not None:
        arguments.report.parent.mkdir(parents=True, exist_ok=True)
        arguments.report.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report: {arguments.report}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
