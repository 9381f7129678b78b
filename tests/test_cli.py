"""Tests for the ``python -m repro`` command-line demo."""

import pytest

from repro.__main__ import main


class TestRailcabCommand:
    def test_faulty_shuttle(self, capsys):
        assert main(["railcab", "--shuttle", "faulty"]) == 0
        out = capsys.readouterr().out
        assert "verdict: real-violation" in out
        assert "shuttle2.convoyProposal!" in out

    def test_correct_shuttle(self, capsys):
        assert main(["railcab", "--shuttle", "correct"]) == 0
        out = capsys.readouterr().out
        assert "verdict: proven" in out

    def test_counterexample_batching_flag(self, capsys):
        assert main(["railcab", "--shuttle", "correct", "--counterexamples", "4"]) == 0
        assert "proven" in capsys.readouterr().out

    def test_loop_flags(self, capsys):
        assert (
            main(
                [
                    "railcab",
                    "--shuttle",
                    "correct",
                    "--counterexamples",
                    "2",
                    "--max-iterations",
                    "200",
                ]
            )
            == 0
        )
        assert "proven" in capsys.readouterr().out

    def test_no_incremental_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["railcab", "--shuttle", "correct", "--no-incremental"])
        assert exit_info.value.code == 2
        assert "--no-incremental" in capsys.readouterr().err

    def test_report_flag_writes_markdown(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["railcab", "--shuttle", "faulty", "--report", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# RailCab integration: faulty shuttle")
        assert "## Violation witness" in text

    def test_unknown_shuttle_rejected(self):
        with pytest.raises(SystemExit):
            main(["railcab", "--shuttle", "imaginary"])


class TestMultiCommand:
    def test_two_correct(self, capsys):
        assert main(["multi", "--front", "correct"]) == 0
        out = capsys.readouterr().out
        assert "verdict: proven" in out
        assert "frontShuttle" in out and "rearShuttle" in out

    def test_forgetful_front(self, capsys):
        assert main(["multi", "--front", "forgetful"]) == 0
        out = capsys.readouterr().out
        assert "real-violation" in out


class TestCompareCommand:
    def test_table_shape(self, capsys):
        assert main(["compare", "--extra-states", "2"]) == 0
        out = capsys.readouterr().out
        assert "L* member" in out
        assert " 2 " in out.splitlines()[-1] or out.splitlines()[-1].strip().startswith("2")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "flag",
        [
            ["--test-retries", "-1"],
            ["--max-iterations", "0"],
            ["--counterexamples", "0"],
            ["--test-timeout", "0"],
            ["--test-timeout", "nan"],
            ["--remote-step-deadline", "0"],
            ["--remote-step-deadline", "nan"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_loop_flag_is_a_usage_error(self, capsys, tmp_path, flag):
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["railcab", "--shuttle", "correct", "--trace", str(trace), *flag])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro railcab")
        # The message names the flag and the value as typed.
        assert f"error: {flag[0]} must be" in err
        assert err.rstrip().endswith(f"got {flag[1]}")
        assert "Traceback" not in err
        assert not trace.exists()  # rejected before any sink opens
