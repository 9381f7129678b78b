"""``tools/bench_trend.py``: trend points, windows, regression flags.

The acceptance property: a synthetic regression planted in a fixture
trend is flagged (exit 1 naming the metric), while the repository's own
recorded trajectory — the committed ``BENCH_loop.json`` appended
repeatedly — passes clean.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_trend", REPO_ROOT / "tools" / "bench_trend.py"
)
bench_trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trend)


def _report(**overrides) -> dict:
    """A minimal healthy bench report with every tracked section."""
    report = {
        "machine": {"cpu": "test-cpu", "python": "3.12.0", "system": "Linux"},
        "headline": {"speedup_min": 3.2, "speedup_median": 3.5},
        "robust": {"robust_overhead_fraction": 0.004},
        "traced": {
            "null_tracer_overhead_fraction": 0.003,
            "jsonl_tracer_overhead_fraction": 0.04,
        },
        "flight": {
            "null_flight_overhead_fraction": 0.0002,
            "active_flight_overhead_fraction": 0.002,
        },
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        report[section][key] = value
    return report


def _write(tmp_path, name, report) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def _seed_history(tmp_path, trend, count=3):
    for index in range(count):
        path = _write(tmp_path, f"good-{index}.json", _report())
        code = bench_trend.main([path, "--trend", str(trend), "--rev", f"rev-{index}"])
        assert code == 0
    return trend


class TestAppend:
    def test_appends_points_keyed_by_revision(self, tmp_path):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend, count=2)
        recorded = json.loads(trend.read_text())
        assert recorded["schema"] == bench_trend.TREND_SCHEMA
        assert [p["revision"] for p in recorded["points"]] == ["rev-0", "rev-1"]
        point = recorded["points"][0]
        assert point["machine"]["cpu"] == "test-cpu"
        assert point["sections"]["headline"]["speedup_min"] == 3.2
        assert point["sections"]["flight"]["null_flight_overhead_fraction"] == 0.0002

    def test_rerun_on_same_revision_replaces_the_point(self, tmp_path):
        trend = tmp_path / "trend.json"
        first = _write(tmp_path, "a.json", _report())
        redo = _write(tmp_path, "b.json", _report(**{"headline.speedup_min": 3.4}))
        assert bench_trend.main([first, "--trend", str(trend), "--rev", "same"]) == 0
        assert bench_trend.main([redo, "--trend", str(trend), "--rev", "same"]) == 0
        points = json.loads(trend.read_text())["points"]
        assert len(points) == 1
        assert points[0]["sections"]["headline"]["speedup_min"] == 3.4

    def test_unusable_report_exits_2(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        missing = str(tmp_path / "absent.json")
        assert bench_trend.main([missing, "--trend", str(trend)]) == 2
        empty = _write(tmp_path, "empty.json", {"benchmarks": {}})
        assert bench_trend.main([empty, "--trend", str(trend)]) == 2
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "no tracked metrics" in err


class TestRegressionCheck:
    def test_insufficient_history_passes(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        path = _write(tmp_path, "only.json", _report())
        assert bench_trend.main([path, "--trend", str(trend), "--rev", "r0"]) == 0
        assert "regression check skipped" in capsys.readouterr().out

    def test_synthetic_speedup_regression_is_flagged(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend)
        bad = _write(
            tmp_path, "bad.json", _report(**{"headline.speedup_min": 1.5})
        )
        code = bench_trend.main([bad, "--trend", str(trend), "--rev", "regressed"])
        assert code == 1
        err = capsys.readouterr().err
        assert "headline.speedup_min" in err
        assert "fell below" in err
        assert "trace_report.py --diff" in err  # the attribution pointer

    def test_synthetic_overhead_regression_is_flagged(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend)
        bad = _write(
            tmp_path, "bad.json", _report(**{"robust.robust_overhead_fraction": 0.08})
        )
        assert bench_trend.main([bad, "--trend", str(trend), "--rev", "regressed"]) == 1
        err = capsys.readouterr().err
        assert "robust.robust_overhead_fraction" in err
        assert "climbed above" in err

    def test_fraction_noise_within_absolute_slack_passes(self, tmp_path):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend)
        # 0.004 -> 0.008 is a 2x relative climb but only +0.004 absolute
        # — inside the FRACTION_SLACK band, so not a page.
        noisy = _write(
            tmp_path, "noisy.json", _report(**{"robust.robust_overhead_fraction": 0.008})
        )
        assert bench_trend.main([noisy, "--trend", str(trend), "--rev", "noisy"]) == 0

    def test_tolerated_drift_passes(self, tmp_path):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend)
        drift = _write(
            tmp_path, "drift.json", _report(**{"headline.speedup_min": 2.9})
        )
        assert bench_trend.main([drift, "--trend", str(trend), "--rev", "drift"]) == 0

    def test_different_machine_never_compares(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend)
        other = _report(**{"headline.speedup_min": 1.0})
        other["machine"] = {"cpu": "other-cpu", "python": "3.12.0", "system": "Linux"}
        path = _write(tmp_path, "other.json", other)
        assert bench_trend.main([path, "--trend", str(trend), "--rev", "elsewhere"]) == 0
        assert "regression check skipped" in capsys.readouterr().out

    def test_no_check_skips_and_check_only_rechecks(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend)
        bad = _write(
            tmp_path, "bad.json", _report(**{"headline.speedup_min": 1.5})
        )
        assert bench_trend.main([bad, "--trend", str(trend), "--rev", "r", "--no-check"]) == 0
        capsys.readouterr()
        assert bench_trend.main(["--check-only", "--trend", str(trend)]) == 1
        assert "headline.speedup_min" in capsys.readouterr().err

    def test_real_repository_trajectory_passes(self, tmp_path):
        # The committed BENCH_loop.json replayed as its own history
        # must never self-flag: identical points sit exactly on the
        # window median.
        trend = tmp_path / "trend.json"
        real = str(REPO_ROOT / "BENCH_loop.json")
        for index in range(3):
            code = bench_trend.main([real, "--trend", str(trend), "--rev", f"real-{index}"])
            assert code == 0


class TestRendering:
    def test_trend_table_lists_revisions(self, tmp_path, capsys):
        trend = tmp_path / "trend.json"
        _seed_history(tmp_path, trend, count=2)
        out = capsys.readouterr().out
        assert "revision" in out
        assert "rev-0" in out and "rev-1" in out
        assert "3.20x" in out  # the headline column

    def test_median_helper(self):
        assert bench_trend.median([3.0]) == 3.0
        assert bench_trend.median([1.0, 2.0, 9.0]) == 2.0
        assert bench_trend.median([1.0, 3.0]) == 2.0
