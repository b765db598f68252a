"""CLI exit codes under injected faults, and the bounded thread pool."""

import json

import numpy as np

import maskwire.cli as cli
from maskwire.cli import main


def broken_counts(p, x):
    """A histogram that breaks mask conservation: one value hit twice, none missed."""
    counts = np.ones(p.q.q, dtype=np.int64)
    counts[0] = 2
    return counts


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json", "--threads", "1"])
    return code, json.loads(capsys.readouterr().out)


def test_analyze_reports_broken_conservation(monkeypatch, capsys):
    monkeypatch.setattr(cli, "counts_closedform_all", broken_counts)
    code, doc = run_json(capsys, "analyze", "--q", "61", "--s", "6")
    assert code == 1
    assert doc["summary"]["passed"] is False
    assert len(doc["rows"]) == 61
    row = doc["rows"][0]
    assert (row["zeros"], row["ones"], row["twos"]) == (0, 60, 1)
    assert row["min_entropy_bits"] is None


def test_sweep_reports_broken_conservation(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "counts_closedform_all", broken_counts)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cases": [{"q": 61, "s": 6}]}))
    code, doc = run_json(capsys, "sweep", "--config", str(config))
    assert code == 1
    case = doc["rows"][0]
    assert case["row"] == "case"
    assert case["conservation_ok"] is False
    assert case["trichotomy_ok"] is True
    assert doc["summary"]["passed"] is False
    assert doc["summary"]["hard_failures"] == 1


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, maps inline."""

    created: list = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_threads_capped_at_cpu_count(monkeypatch, capsys):
    monkeypatch.setattr(RecordingExecutor, "created", [])
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code = main(["analyze", "--q", "97", "--s", "7", "--format", "json", "--threads", "100000"])
    capsys.readouterr()
    assert code == 0
    assert RecordingExecutor.created == [3]


def test_threads_capped_at_item_count(monkeypatch):
    monkeypatch.setattr(RecordingExecutor, "created", [])
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
    assert cli._pmap(lambda i: i * i, range(70), 100000) == [i * i for i in range(70)]
    assert RecordingExecutor.created == [70]


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def exhausted(p, x):
        raise MemoryError("Unable to allocate 2.00 GiB for an array with shape (2147483647,)")

    monkeypatch.setattr(cli, "counts_closedform_all", exhausted)
    code = main(["analyze", "--q", "61", "--s", "6", "--format", "json", "--threads", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("maskwire: error: out of memory")
    assert "2.00 GiB" in err
