"""Negative controls for the benchmark itself: a corrupted expected report,
or a command the CLI rejects, must count as a failed command, and the
timings must still be reported.

    python3 -m pytest bench/test_negative_control.py
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def run_relation_checks(monkeypatch, capsys):
    """Two passes of relation-checks; returns (exit code, JSON result)."""
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "relation-checks", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def assert_failures_reported(code, result):
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == 2  # the pair command, once per pass
    assert result["failed"] / result["attempted"] > 0
    assert result["metrics"]["wall_s"]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_corrupted_expected_report_gives_failures(monkeypatch, capsys):
    expected = run.WORK_DIR / "negative-control"
    shutil.rmtree(expected, ignore_errors=True)
    shutil.copytree(run.EXPECTED_DIR, expected)
    pair = expected / "pair.txt"
    pair.write_text(pair.read_text().replace("value: 1", "value: 2"))
    monkeypatch.setattr(run, "EXPECTED_DIR", expected)

    assert_failures_reported(*run_relation_checks(monkeypatch, capsys))


def test_rejected_command_gives_failures(monkeypatch, capsys):
    table = run.WORKLOADS["relation-checks"]
    (argv, expected), rest = table[-1], table[:-1]
    assert argv[0] == "pair"
    monkeypatch.setitem(run.WORKLOADS, "relation-checks",
                        rest + [(argv + ["--no-such-option"], expected)])

    assert_failures_reported(*run_relation_checks(monkeypatch, capsys))
