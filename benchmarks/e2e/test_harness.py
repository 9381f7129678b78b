"""Harness tests for the end-to-end benchmark, at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They check that the layer shims count what the program reports, that
the remote shims fire only where remote mode is on, that a wrong
verdict or a drifted instance fails the run, and that every report
carries exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import shims
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Legacy slots per synthesis run (every call of these makes exactly one run).
SLOTS = {"convoy-long": 1, "convoy-multi": 2, "dense-large": 1, "convoy-remote": 1}


def invoke(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke(tmp_path_factory, trace: str) -> tuple[dict, dict]:
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    result = invoke("--smoke", "--trace", trace, "--out", str(out))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory, "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory, "1")


def checkout_copy(tmp_path: Path, *, with_sources: bool) -> Path:
    """BENCHMARK.json and the benchmark directory (plus ``src``, linked)."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def tamper(root: Path, workload: str, field: str, value) -> None:
    path = root / "benchmarks" / "e2e" / "expected.json"
    document = json.loads(path.read_text())
    (entry,) = document["workloads"][workload].values()
    entry[field] = value
    path.write_text(json.dumps(document))


def declared(kind: str) -> dict[str, tuple[str, str]]:
    return {metric["name"]: (metric["unit"], metric["better"]) for metric in BENCHMARK[kind]}


# ---------------------------------------------------------------- contract


def test_catalogue_matches_benchmark_json():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert (shims.TOP, *dict.fromkeys(layer for layer, _, _ in shims.TARGETS)) == run.LAYERS


def test_untraced_report_has_exactly_the_end_to_end_metrics(untraced):
    line, report = untraced
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in run.WORKLOADS:
        metrics = line["metrics"][workload]
        assert {name: metric["unit"] for name, metric in metrics.items()} == {
            name: unit for name, (unit, _) in declared("end_to_end").items()
        }
        assert all(metric["value"] > 0 for metric in metrics.values())
        assert report["workloads"][workload]["recorded"]["error_frac"] == 0


def test_traced_report_has_exactly_the_per_layer_metrics(traced):
    line, _ = traced
    assert line["correct"]
    for workload in run.WORKLOADS:
        metrics = line["metrics"][workload]
        assert {name: metric["unit"] for name, metric in metrics.items()} == {
            name: unit for name, (unit, _) in declared("per_layer").items()
        }


# ------------------------------------------------------------ attribution


def test_shim_counts_equal_program_counts(traced):
    line, _ = traced
    for workload in run.WORKLOADS:
        value = {name: metric["value"] for name, metric in line["metrics"][workload].items()}
        iterations = value["synthesis.loop.iterations"]
        assert iterations > 0
        assert value["incremental.product.calls"] == pytest.approx(iterations), workload
        assert value["robust.execute.calls"] == pytest.approx(value["robust.execute.tests"]), workload
        assert value["robust.execute.retries"] == 0, workload
        if workload in SLOTS:
            assert value["incremental.closure.calls"] == pytest.approx(iterations * SLOTS[workload])
        else:
            assert value["incremental.closure.calls"] >= iterations
        if SLOTS.get(workload) == 1:
            assert value["replay.calls"] == pytest.approx(value["replay.replays"]), workload


def test_remote_shims_fire_on_convoy_remote_only(traced):
    line, _ = traced
    for workload in run.WORKLOADS:
        metrics = line["metrics"][workload]
        spawns = metrics["remote.spawn.calls"]["value"]
        steps = metrics["remote.step.calls"]["value"]
        if workload == "convoy-remote":
            assert spawns == 1 and steps > 0
        else:
            assert spawns == 0 and steps == 0, workload


def test_layer_shares_cover_the_traced_call(traced):
    line, _ = traced
    for workload in run.WORKLOADS:
        metrics = line["metrics"][workload]
        shares = sum(metrics[f"{layer}.self_frac"]["value"] for layer in run.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.02), workload


# --------------------------------------------------------------- failures


def test_tampered_verdict_fails_the_run(tmp_path):
    root = checkout_copy(tmp_path, with_sources=True)
    tamper(root, "convoy-multi", "verdicts", {"joint": "violation"})
    result = invoke("--workload", "convoy-multi", "--smoke", "--out", str(tmp_path / "r.json"), root=root)
    assert result.returncode != 0
    line = json.loads(result.stdout.splitlines()[-1])
    assert not line["correct"] and line["failed"] == line["attempted"] > 0
    recorded = json.loads((tmp_path / "r.json").read_text())["workloads"]["convoy-multi"]["recorded"]
    assert recorded["error_frac"] > 0


def test_fingerprint_mismatch_aborts_and_names_the_instance(tmp_path):
    root = checkout_copy(tmp_path, with_sources=True)
    tamper(root, "convoy-long", "fingerprint", "000000000000")
    result = invoke("--workload", "convoy-long", "--smoke", root=root)
    assert result.returncode != 0
    assert "'convoy-long'" in result.stderr
    assert '"correct"' not in result.stdout


def test_refuses_to_run_without_sources(tmp_path):
    root = checkout_copy(tmp_path, with_sources=False)
    result = invoke("--workload", "convoy-multi", root=root)
    assert result.returncode != 0
    assert result.stdout == ""
