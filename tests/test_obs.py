"""The observability layer: tracer, metrics registry, exporters.

The span and metric *names* are a stable contract — ``docs/observability.md``
documents them, dashboards and trace diffs rely on them — so the loop
tests here assert the exact name sets, not just "something was traced".
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import railcab
from repro.errors import SynthesisError
from repro.obs import (
    NULL_TRACER,
    DEFAULT_TIME_BOUNDS,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    chrome_trace,
    encode_event,
    fold_diff,
    fold_self_time,
    load_trace,
    metric_events,
    publish_record,
    record_counters,
    render_fold_diff,
    render_fold_table,
    render_trace_summary,
    resolve_tracer,
    span_event,
    span_line,
    write_trace,
)
from repro.synthesis import IntegrationSynthesizer, MultiLegacySynthesizer, SynthesisSettings, Verdict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The stable span-name contract of a single-placement synthesis run
#: (every name must appear in a traced correct-shuttle run).
LOOP_SPAN_NAMES = {
    "loop.run",
    "loop.iteration",
    "verify.step",
    "closure.update",
    "product.update",
    "checker.check",
    "counterexample.derive",
    "test.execute",
    "monitor.replay",
    "learn.merge",
}

#: Counter names published per iteration (record_counters namespaces
#: plus the loop_* rollups).
LOOP_COUNTER_NAMES = {
    "closure_groups_reused",
    "closure_groups_rebuilt",
    "dirty_states",
    "affected_states",
    "product_hits",
    "product_misses",
    "closure_cache_hits",
    "closure_cache_misses",
    "loop_iterations",
    "loop_tests_executed",
    "loop_knowledge_gained",
}


def _traced_run(ticks: int = 1, **settings_kwargs):
    tracer = Tracer()
    result = IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=ticks),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        settings=SynthesisSettings(tracer=tracer, **settings_kwargs),
    ).run()
    return tracer, result


def _traced_multi_run():
    """The two-legacy convoy, traced (the multi-legacy loop's twin)."""
    tracer = Tracer()
    result = MultiLegacySynthesizer(
        None,
        [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle()],
        railcab.PATTERN_CONSTRAINT,
        labelers={
            "frontShuttle": railcab.front_state_labeler,
            "rearShuttle": railcab.rear_state_labeler,
        },
        settings=SynthesisSettings(tracer=tracer),
    ).run()
    return tracer, result


#: Both synthesizers emit one vocabulary: ``(traced run, synthesizer name)``.
BOTH_LOOPS = pytest.mark.parametrize(
    "traced_run, synthesizer",
    [(_traced_run, "IntegrationSynthesizer"), (_traced_multi_run, "MultiLegacySynthesizer")],
    ids=["single", "multi"],
)


# ---------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.inc("c", 4)
        registry.set_gauge("g", 2.5)
        registry.observe("h", 0.0005)
        registry.observe("h", 99.0)  # overflow bucket
        snapshot = registry.as_dict()
        assert snapshot["counters"] == {"c": 5}
        assert snapshot["gauges"] == {"g": 2.5}
        hist = snapshot["histograms"]["h"]
        assert hist["count"] == 2
        assert sum(hist["counts"]) == 2
        assert hist["counts"][-1] == 1  # the 99s observation
        assert len(hist["counts"]) == len(DEFAULT_TIME_BOUNDS) + 1

    def test_histogram_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", bounds=(1.0, 1.0))

    def test_as_dict_is_name_sorted(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.inc(name)
        assert list(registry.as_dict()["counters"]) == ["alpha", "mid", "zeta"]

    def test_absorb_has_gauge_semantics(self):
        registry = MetricsRegistry()
        stats = {"work": 10, "shards": (3, 4), "flag": True}
        registry.absorb(stats)
        registry.absorb(stats)  # re-publishing must not double-count
        gauges = registry.as_dict()["gauges"]
        assert gauges == {"work": 10, "shards[0]": 3, "shards[1]": 4}

    def test_absorb_list_valued_counters(self):
        registry = MetricsRegistry()
        registry.absorb(
            {
                "per_shard_work": [7, 0, 12.5],
                "mixed": [1, "skip-me", True, 2],
                "empty": [],
            }
        )
        gauges = registry.as_dict()["gauges"]
        assert gauges == {
            "per_shard_work[0]": 7,
            "per_shard_work[1]": 0,
            "per_shard_work[2]": 12.5,
            # Non-numeric and boolean elements are skipped, but the
            # numeric elements around them keep their original indices.
            "mixed[0]": 1,
            "mixed[3]": 2,
        }

    def test_absorb_colliding_prefixes_last_write_wins(self):
        registry = MetricsRegistry()
        # Two sources whose prefixed names collide: "shard_" + "work"
        # lands on the same gauge as an unprefixed "shard_work".  Gauge
        # semantics (last write wins) make the collision well-defined
        # rather than double-counted.
        registry.absorb({"work": 10, "items": (1, 2)}, prefix="shard_")
        registry.absorb({"shard_work": 99, "shard_items[0]": 8})
        gauges = registry.as_dict()["gauges"]
        assert gauges["shard_work"] == 99
        assert gauges["shard_items[0]"] == 8
        assert gauges["shard_items[1]"] == 2
        assert set(gauges) == {"shard_work", "shard_items[0]", "shard_items[1]"}

    def test_histogram_exact_bucket_boundaries(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0, 5.0))
        # Bounds are inclusive upper bounds: an observation exactly on
        # a bound lands in that bound's bucket, not the next one.
        hist.observe(1.0)
        hist.observe(2.0)
        hist.observe(5.0)
        hist.observe(0.0)  # at/below the first bound
        hist.observe(5.000001)  # just past the last bound: overflow
        snapshot = hist.as_dict()
        assert snapshot["bounds"] == [1.0, 2.0, 5.0]
        assert snapshot["counts"] == [2, 1, 1, 1]
        assert snapshot["count"] == 5 == sum(snapshot["counts"])
        assert snapshot["total"] == pytest.approx(13.000001)


class TestRecordPlumbing:
    def test_publish_record_accumulates(self, tiny_record=None):
        from repro.synthesis import IterationRecord

        record = IterationRecord(
            0, 1, 0, 0, 1, 0, 1, True, True, None, None, False, None, 2, 1, None, 3,
            product_hits=5, product_misses=2, quarantine_size=1,
        )
        registry = MetricsRegistry()
        publish_record(registry, record)
        publish_record(registry, record)  # counters accumulate across iterations
        snapshot = registry.as_dict()
        assert snapshot["counters"]["product_hits"] == 10
        assert snapshot["counters"]["loop_iterations"] == 2
        assert snapshot["counters"]["loop_tests_executed"] == 4
        assert snapshot["counters"]["loop_knowledge_gained"] == 6
        # The quarantine size is a current size, not work: a gauge.
        assert snapshot["gauges"]["quarantine_size"] == 1
        assert "quarantine_size" not in snapshot["counters"]

    def test_record_counters_key_order_matches_result_to_dict(self):
        from repro.synthesis import IterationRecord

        record = IterationRecord(
            0, 1, 0, 0, 1, 0, 1, True, True, None, None, False, None, 0, 0, None, 0
        )
        assert list(record_counters(record)) == [
            "closure_groups_reused",
            "closure_groups_rebuilt",
            "dirty_states",
            "affected_states",
            "product_hits",
            "product_misses",
            "checker_fixpoint_work",
            "test_retries",
            "test_timeouts",
            "tests_inconclusive",
            "quarantine_size",
        ]


# ----------------------------------------------------------------- tracer


class TestTracer:
    def test_span_context_manager_records(self):
        tracer = Tracer()
        with tracer.span("outer", color="blue"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.spans]
        assert names == ["inner", "outer"]  # completion order
        outer = tracer.spans[1]
        assert outer.track == "main"
        assert outer.args == {"color": "blue"}
        assert outer.duration >= tracer.spans[0].duration

    def test_span_set_attaches_args(self):
        tracer = Tracer()
        with tracer.span("s") as handle:
            handle.set(hits=3)
        assert tracer.spans[0].args == {"hits": 3}

    def test_record_rebases_onto_epoch(self):
        import time

        tracer = Tracer()
        begin = time.perf_counter()
        tracer.record("worker", track="worker-1", start=begin, duration=0.5, round=2)
        span = tracer.spans[0]
        assert span.track == "worker-1"
        assert span.start >= 0.0  # rebased, not the absolute clock value
        assert span.start < 10.0
        assert span.args == {"round": 2}

    def test_wrap_decorator(self):
        tracer = Tracer()

        @tracer.wrap("fn")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert tracer.spans[0].name == "fn"

    def test_streaming_sink_retains_nothing(self):
        seen = []

        class SpanSink:
            on_span = seen.append

        tracer = Tracer(SpanSink())
        with tracer.span("s"):
            pass
        assert tracer.spans == ()
        assert [span.name for span in seen] == ["s"]

    def test_exception_still_emits_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert [span.name for span in tracer.spans] == ["failing"]


class TestNullTracer:
    def test_is_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        with NULL_TRACER.span("s") as handle:
            handle.set(key="value")
        assert NULL_TRACER.spans == ()

    def test_wrap_is_identity(self):
        def function():
            return 7

        assert NullTracer().wrap("name")(function) is function

    def test_resolve_without_env_is_null(self, monkeypatch):
        from repro.obs.tracer import BLACKBOX_ENV, TRACE_ENV

        monkeypatch.delenv(TRACE_ENV, raising=False)
        monkeypatch.delenv(BLACKBOX_ENV, raising=False)
        assert resolve_tracer(None) is NULL_TRACER

    def test_resolve_prefers_explicit(self, monkeypatch):
        from repro.obs.tracer import TRACE_ENV

        monkeypatch.setenv(TRACE_ENV, "/tmp/never-written")
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer

    def test_unknown_env_format_is_a_synthesis_error(self, monkeypatch, tmp_path):
        from repro.obs.tracer import TRACE_ENV, TRACE_FORMAT_ENV

        path = tmp_path / "trace.out"
        monkeypatch.setenv(TRACE_ENV, str(path))
        monkeypatch.setenv(TRACE_FORMAT_ENV, "xml")
        with pytest.raises(SynthesisError, match=f"{TRACE_FORMAT_ENV}.*'xml'"):
            resolve_tracer(None)
        assert not path.exists()

    @pytest.mark.parametrize(
        "variable, existing",
        [("REPRO_TRACE", "directory"), ("REPRO_BLACKBOX", "file")],
    )
    def test_bad_env_path_is_a_synthesis_error_before_the_loop(
        self, monkeypatch, tmp_path, variable, existing
    ):
        # A trace file that is a directory, or a blackbox directory that
        # is a file, fails at construction with the variable's name —
        # never mid-run with an OSError at the first span or anomaly.
        target = tmp_path / "target"
        if existing == "directory":
            target.mkdir()
        else:
            target.write_text("")
        for name in ("REPRO_TRACE", "REPRO_TRACE_FORMAT", "REPRO_BLACKBOX"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(variable, str(target))
        with pytest.raises(SynthesisError, match=variable):
            IntegrationSynthesizer(
                railcab.front_role_automaton(),
                railcab.correct_rear_shuttle(convoy_ticks=1),
                railcab.PATTERN_CONSTRAINT,
                labeler=railcab.rear_state_labeler,
                port="rearRole",
            )


class TestSettingsIntegration:
    def test_settings_reject_non_tracer(self):
        with pytest.raises(SynthesisError, match="tracer must provide"):
            SynthesisSettings(tracer=42)

    def test_tracer_excluded_from_equality(self):
        assert SynthesisSettings(tracer=Tracer()) == SynthesisSettings()


# --------------------------------------------------------- the name contract


class TestLoopSpanContract:
    """The traced verify→test→learn loop emits exactly the documented names."""

    def test_single_placement_span_names(self):
        tracer, result = _traced_run()
        assert result.verdict is Verdict.PROVEN
        names = {span.name for span in tracer.spans}
        assert LOOP_SPAN_NAMES <= names
        # checker fixpoint/bounded solves appear under their own names.
        assert names - LOOP_SPAN_NAMES <= {
            "checker.fixpoint",
            "checker.bounded",
            "test.retry",
            "fault.inject",
        }

    @BOTH_LOOPS
    def test_loop_run_and_iteration_args(self, traced_run, synthesizer):
        tracer, result = traced_run()
        run_span = next(s for s in tracer.spans if s.name == "loop.run")
        assert run_span.args == {"synthesizer": synthesizer}
        indices = [
            s.args["index"] for s in tracer.spans if s.name == "loop.iteration"
        ]
        assert sorted(indices) == list(range(result.iteration_count))

    @BOTH_LOOPS
    def test_loop_metrics_contract(self, traced_run, synthesizer):
        tracer, result = traced_run()
        snapshot = tracer.metrics.as_dict()
        assert LOOP_COUNTER_NAMES <= set(snapshot["counters"])
        assert snapshot["counters"]["loop_iterations"] == result.iteration_count
        assert snapshot["gauges"]["loop_iteration_count"] == result.iteration_count
        assert {"test_execute_seconds", "monitor_replay_seconds"} <= set(
            snapshot["histograms"]
        )
        assert any(name.startswith("pool_") for name in snapshot["gauges"])
        assert any(name.startswith("checker_") for name in snapshot["gauges"])

    def test_closure_cache_counters_match_result(self):
        tracer, result = _traced_run()
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["closure_cache_hits"] == sum(
            r.closure_groups_reused for r in result.iterations
        )
        assert counters["closure_cache_misses"] == sum(
            r.closure_groups_rebuilt for r in result.iterations
        )

    def test_multi_legacy_span_names(self):
        tracer, result = _traced_multi_run()
        assert result.verdict is Verdict.PROVEN
        run_span = next(s for s in tracer.spans if s.name == "loop.run")
        assert run_span.args == {"synthesizer": "MultiLegacySynthesizer"}
        names = {span.name for span in tracer.spans}
        assert LOOP_SPAN_NAMES <= names

    def test_null_tracer_run_is_untouched(self):
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
        ).run()
        assert result.verdict is Verdict.PROVEN
        assert NULL_TRACER.spans == ()

    def test_traced_and_untraced_runs_agree(self):
        tracer, traced = _traced_run()
        untraced = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.correct_rear_shuttle(convoy_ticks=1),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
        ).run()
        assert traced.verdict is untraced.verdict
        assert traced.iteration_count == untraced.iteration_count
        assert [r.knowledge_gained for r in traced.iterations] == [
            r.knowledge_gained for r in untraced.iterations
        ]


# -------------------------------------------------------------- exporters


class TestChromeTrace:
    def test_document_shape(self):
        tracer, _ = _traced_run()
        document = chrome_trace(tracer)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events[0] == {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": "repro"},
        }
        tracks = {
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert tracks == {"main"}
        complete = [e for e in events if e.get("ph") == "X"]
        assert complete, "expected X events"
        for event in complete:
            assert event["pid"] == 1
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["ts"] >= 0.0

    def test_json_round_trips(self, tmp_path):
        tracer, _ = _traced_run()
        path = str(tmp_path / "trace.chrome.json")
        write_trace(tracer, path, format="chrome")
        document = json.loads(pathlib.Path(path).read_text())
        assert "traceEvents" in document


class TestJsonlTrace:
    def test_round_trip(self, tmp_path):
        tracer, _ = _traced_run()
        path = str(tmp_path / "trace.jsonl")
        write_trace(tracer, path, format="jsonl")
        spans, metrics = load_trace(path)
        assert [s.name for s in spans] == [s.name for s in tracer.spans]
        assert [s.args for s in spans] == [dict(s.args) for s in tracer.spans]
        counter_names = {m["name"] for m in metrics if m["kind"] == "counter"}
        assert "loop_iterations" in counter_names

    def test_chrome_load_recovers_tracks(self, tmp_path):
        tracer, _ = _traced_run()
        path = str(tmp_path / "trace.chrome.json")
        write_trace(tracer, path, format="chrome")
        spans, metrics = load_trace(path)
        assert {s.track for s in spans} == {s.track for s in tracer.spans}
        assert metrics == []  # chrome documents carry no metric events

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(Tracer(), str(tmp_path / "x"), format="perfetto")

    def test_metric_events_are_sorted(self):
        registry = MetricsRegistry()
        registry.inc("zeta")
        registry.inc("alpha")
        events = metric_events(registry)
        assert [e["name"] for e in events] == ["alpha", "zeta"]

    def test_span_line_matches_generic_encoding(self):
        # The streaming sinks' hand-built fast path must stay
        # byte-identical to encode_event(span_event(span)) — JSONL
        # files from either path are diffable against each other.
        tracer, _ = _traced_run()
        for span in tracer.spans:
            assert span_line(span) == encode_event(span_event(span))
        odd = Span("n", "t", 1e-07, 0.25, {"z": 1, "a": [0.5, "s"], "m": None})
        assert span_line(odd) == encode_event(span_event(odd))
        assert json.loads(span_line(odd))["args"] == {"z": 1, "a": [0.5, "s"], "m": None}


# ---------------------------------------------------------------- analysis


def _span(name, start, duration, track="main", **args):
    return Span(name=name, track=track, start=start, duration=duration, args=args)


class TestFoldSelfTime:
    def test_children_subtract_from_parent(self):
        rows = fold_self_time(
            [
                _span("parent", 0.0, 1.0),
                _span("child", 0.1, 0.6),
                _span("grandchild", 0.2, 0.2),
            ]
        )
        by_name = {row["name"]: row for row in rows}
        assert by_name["parent"]["self"] == pytest.approx(0.4)
        assert by_name["child"]["self"] == pytest.approx(0.4)
        assert by_name["grandchild"]["self"] == pytest.approx(0.2)
        assert rows[0]["name"] in ("parent", "child")  # sorted by self desc

    def test_tracks_fold_independently(self):
        rows = fold_self_time(
            [
                _span("a", 0.0, 1.0, track="one"),
                _span("b", 0.0, 1.0, track="two"),
            ]
        )
        by_name = {row["name"]: row for row in rows}
        # Same interval on different tracks: no nesting between them.
        assert by_name["a"]["self"] == pytest.approx(1.0)
        assert by_name["b"]["self"] == pytest.approx(1.0)

    def test_render_fold_table_limit(self):
        rows = fold_self_time([_span(f"s{i}", i, 0.5) for i in range(5)])
        table = render_fold_table(rows, limit=2)
        assert "3 more span name" in table
        assert len(table.splitlines()) == 5  # header, rule, 2 rows, ellipsis


class TestFoldDiff:
    def test_diff_sorts_by_absolute_delta(self):
        old = fold_self_time([_span("a", 0.0, 1.0), _span("b", 2.0, 0.5)])
        new = fold_self_time([_span("a", 0.0, 1.1), _span("b", 2.0, 2.0)])
        rows = fold_diff(old, new)
        assert [row["name"] for row in rows] == ["b", "a"]  # |+1.5| > |+0.1|
        b_row = rows[0]
        assert b_row["old_self"] == pytest.approx(0.5)
        assert b_row["new_self"] == pytest.approx(2.0)
        assert b_row["delta_self"] == pytest.approx(1.5)
        assert (b_row["old_count"], b_row["new_count"]) == (1, 1)

    def test_one_sided_names_diff_against_zero(self):
        old = fold_self_time([_span("gone", 0.0, 1.0)])
        new = fold_self_time([_span("born", 0.0, 0.25)])
        rows = {row["name"]: row for row in fold_diff(old, new)}
        assert rows["gone"]["delta_self"] == pytest.approx(-1.0)
        assert rows["gone"]["new_count"] == 0
        assert rows["born"]["old_self"] == 0.0
        assert rows["born"]["delta_self"] == pytest.approx(0.25)

    def test_render_fold_diff_table(self):
        old = fold_self_time([_span("steady", 0.0, 1.0)])
        new = fold_self_time([_span("steady", 0.0, 1.5), _span("born", 2.0, 0.5)])
        table = render_fold_diff(fold_diff(old, new))
        assert "delta ms" in table
        assert "new" in table  # the born row has no base to percent against
        assert "1->1" in table
        assert table.splitlines()[-1] == "net self-time delta: +1000.00 ms"

    def test_render_fold_diff_limit(self):
        old = fold_self_time([_span(f"s{i}", 2.0 * i, 1.0) for i in range(4)])
        rows = fold_diff(old, [])
        table = render_fold_diff(rows, limit=2)
        assert "2 more span name" in table


class TestTraceSummary:
    def test_per_iteration_rows(self):
        tracer, result = _traced_run()
        summary = render_trace_summary(tracer)
        lines = summary.splitlines()
        assert lines[0].split() == [
            "it", "total", "verify", "checker", "cex", "test", "replay", "learn", "other",
        ]
        assert len(lines) == result.iteration_count + 2

    def test_falls_back_to_fold_without_iterations(self):
        summary = render_trace_summary([_span("lonely", 0.0, 1.0)])
        assert "lonely" in summary
        assert "self ms" in summary


# ----------------------------------------------------- determinism + CLI


def _fingerprint_script(ticks: int) -> str:
    return f"""
import hashlib, json
from repro import railcab
from repro.obs import Tracer
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings

tracer = Tracer()
IntegrationSynthesizer(
    railcab.front_role_automaton(),
    railcab.correct_rear_shuttle(convoy_ticks={ticks}),
    railcab.PATTERN_CONSTRAINT,
    labeler=railcab.rear_state_labeler,
    port="rearRole",
    settings=SynthesisSettings(tracer=tracer),
).run()
shape = sorted(
    (span.track, span.name, json.dumps(span.args, sort_keys=True))
    for span in tracer.spans
)
print(hashlib.sha256(json.dumps(shape).encode()).hexdigest())
"""


class TestDeterminism:
    def test_span_shape_stable_across_hash_seeds(self):
        digests = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [sys.executable, "-c", _fingerprint_script(1)],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, f"span shape varied across hash seeds: {digests}"


class TestCommandLine:
    def test_trace_flag_writes_chrome(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.chrome.json")
        code = main(
            ["railcab", "--shuttle", "correct", "--trace", path,
             "--trace-format", "chrome"]
        )
        assert code == 0
        document = json.loads(pathlib.Path(path).read_text())
        tracks = {
            e["args"]["name"] for e in document["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert "main" in tracks
        assert "trace (chrome) written" in capsys.readouterr().out

    def test_trace_report_tool(self, tmp_path):
        tracer, _ = _traced_run()
        path = str(tmp_path / "trace.jsonl")
        write_trace(tracer, path)
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace_report.py"),
             path, "--top", "3", "--summary"],
            capture_output=True, text=True, check=True,
        )
        assert "self ms" in proc.stdout
        assert "verify" in proc.stdout  # the summary table

    def _trace_report(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace_report.py"), *args],
            capture_output=True, text=True,
        )

    def test_trace_report_missing_file_exits_2(self, tmp_path):
        proc = self._trace_report(str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2
        assert "no such file" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_trace_report_non_trace_file_exits_2(self, tmp_path):
        path = tmp_path / "not-a-trace.txt"
        path.write_text("this is not a trace\n")
        proc = self._trace_report(str(path))
        assert proc.returncode == 2
        assert "not a trace file" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_trace_report_empty_trace_exits_2(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        proc = self._trace_report(str(path))
        assert proc.returncode == 2
        assert "no spans recorded" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_trace_report_diff_mode(self, tmp_path):
        old_tracer, _ = _traced_run()
        new_tracer, _ = _traced_run(counterexamples_per_iteration=2)
        old_path = str(tmp_path / "old.jsonl")
        new_path = str(tmp_path / "new.jsonl")
        write_trace(old_tracer, old_path)
        write_trace(new_tracer, new_path)
        # List every span name: a --top cut would rank rows by timing.
        names = {span.name for span in (*old_tracer.spans, *new_tracer.spans)}
        proc = self._trace_report("--diff", old_path, new_path, "--top", str(len(names)))
        assert proc.returncode == 0, proc.stderr
        assert "more span name(s)" not in proc.stdout
        assert "delta ms" in proc.stdout
        assert "net self-time delta" in proc.stdout
        assert "checker.check" in proc.stdout

    def test_trace_report_diff_rejects_extra_positional(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        proc = self._trace_report(str(path), "--diff", str(path), str(path))
        assert proc.returncode == 2
        assert "not both" in proc.stderr

    def test_env_activation_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "env-trace.jsonl")
        env = dict(os.environ)
        env["REPRO_TRACE"] = path
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        script = """
from repro import railcab
from repro.synthesis import IntegrationSynthesizer

IntegrationSynthesizer(
    railcab.front_role_automaton(),
    railcab.correct_rear_shuttle(),
    railcab.PATTERN_CONSTRAINT,
    labeler=railcab.rear_state_labeler,
    port="rearRole",
).run()
"""
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        spans, metrics = load_trace(path)
        assert {s.name for s in spans} >= LOOP_SPAN_NAMES
        assert any(m["name"] == "loop_iterations" for m in metrics)
