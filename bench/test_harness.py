"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import worker
from metrics import END_TO_END, PER_LAYER
from outputs import DIGESTS, command_problems, count_failures, invariant_problems
from spans import Span, Tracer, covered_length, layer_stats, self_times
from workloads import MLDSA_SAMPLED, MLKEM_CLI, NTT_CASES, NTT_SWEEP, WORKLOADS

cli = worker.import_cli()

import maskwire  # noqa: E402  (importable once import_cli put src on sys.path)
from maskwire import gadgets, pipeline, preimage  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


# --- self time --------------------------------------------------------


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_self_time_of_overlapping_spans_from_two_threads():
    # Root span on thread 1; its children run on threads 2 and 3 and
    # overlap in [3, 4]; one more child on thread 1 runs past the root's end.
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, 1, 0, 0),
        Span(2, "preimage.f", 1.0, 4.0, 1, 2, 5, 40),
        Span(3, "preimage.f", 3.0, 6.0, 1, 3, 5, 40),
        Span(4, "report.render", 8.0, 12.0, 1, 1, 0, 9),
        Span(5, "gadgets.g", 2.0, 3.0, 2, 2, 5, 40),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    stats = layer_stats(spans)
    assert stats["preimage.f"] == {
        "calls": 2,
        "busy_s": 6.0,
        "self_s": 5.0,
        "items": 10,
        "bytes": 80,
    }
    assert stats["cli.main"]["self_s"] == 3.0


def test_worker_thread_spans_hang_off_the_handing_over_span():
    # More than 64 secrets with two threads sends the work through _pmap.
    with Tracer() as tracer:
        _cli_json(["analyze", "--q", "97", "--s", "14", "--format", "json", "--threads", "2"])
    (main_span,) = [s for s in tracer.spans if s.name == "cli.main"]
    counts = [s for s in tracer.spans if s.name == "preimage.counts_closedform_all"]
    assert len(counts) == 97
    assert all(s.parent == main_span.id for s in counts)
    assert any(s.thread != main_span.thread for s in counts)
    assert 0 <= self_times(tracer.spans)[main_span.id] < main_span.end - main_span.start


# --- wrapper install and uninstall ------------------------------------


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every maskwire module and class, by identity."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "maskwire" and not name.startswith("maskwire."):
            continue
        for attr, obj in vars(mod).items():
            found[(name, attr)] = obj
            if isinstance(obj, type):
                for cattr, cobj in vars(obj).items():
                    found[(f"{name}.{attr}", cattr)] = cobj
    return found


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    original = preimage.counts_closedform_all
    with Tracer() as tracer:
        wrapped = cli.counts_closedform_all
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert preimage.counts_closedform_all is wrapped
        assert maskwire.counts_closedform_all is wrapped
        assert pipeline.counts_bruteforce_all is cli.counts_bruteforce_all
        assert preimage.barrett_nat_eval_vec is gadgets.barrett_nat_eval_vec
        assert gadgets.barrett_nat_eval_vec.__wrapped__ is before[
            ("maskwire.gadgets", "barrett_nat_eval_vec")
        ]
        from_counts = vars(preimage.MultiplicityProfile)["from_counts"]
        assert from_counts is not before[("maskwire.preimage.MultiplicityProfile", "from_counts")]
        with pytest.raises(RuntimeError):
            tracer.install()
        # A gadget lambda reaches the wrapped gadgets global at call time.
        g = gadgets.make_barrett_gadget(gadgets.BarrettParams.create(13, 5))
        preimage.counts_bruteforce_all(g, 3)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []
    names = {s.name for s in tracer.spans}
    assert {
        "preimage.counts_bruteforce_all",
        "gadgets.barrett_algebraic_eval_vec",
        "gadgets.make_barrett_gadget",
        "gadgets.BarrettParams.create",
    } <= names
    assert tracer.created > 0


def test_tracing_leaves_rows_unchanged(tmp_path):
    config = tmp_path / "tiny.sweep.json"
    config.write_text(json.dumps({"cases": [{"q": 97, "s": 14}, {"q": 20000, "s": 30}]}))
    argv = ["sweep", "--config", str(config), "--format", "json", "--threads", "2"]
    plain = _cli_json(argv)
    with Tracer():
        traced = _cli_json(argv)
    assert traced["rows"] == plain["rows"] and traced["summary"] == plain["summary"]


# --- pair counts ------------------------------------------------------


def test_pair_counts_per_workload():
    kem = 3329 * 3329
    assert MLKEM_CLI.pairs == 8 * kem + 3329
    assert MLKEM_CLI.equiv_pairs == kem
    assert NTT_SWEEP.equiv_pairs == 242_176_853
    assert NTT_SWEEP.pairs == 2 * 242_176_853
    assert MLDSA_SAMPLED.pairs == 3 * 16 * 8_380_417
    assert MLDSA_SAMPLED.equiv_pairs == 0


def test_pair_counts_rest_on_the_cli_scope_policy():
    assert all(
        q <= cli.SWEEP_EXHAUSTIVE_LIMIT and q <= cli.SWEEP_EQUIV_LIMIT and q <= 2**s
        for q, s in NTT_CASES
    )
    assert 3329 <= pipeline.PIPELINE_EXHAUSTIVE_LIMIT
    assert 8_380_417 > max(cli.SWEEP_EQUIV_LIMIT, preimage.EXHAUSTIVE_SECRET_LIMIT)
    assert cli.SWEEP_SAMPLE_SECRETS == preimage.DEFAULT_SAMPLE_SECRETS == 16


def test_pair_counts_match_what_the_cli_reports():
    by_name = {" ".join(c.argv): c for c in MLKEM_CLI.commands}
    for key in (
        "trichotomy --q 3329 --s 24 --exhaustive",
        "trichotomy --q 3329 --s 24 --exhaustive --oracle",
        "equiv --q 3329 --s 24 --exhaustive",
    ):
        command = by_name[key]
        doc = _cli_json(command.args(0))
        assert doc["rows"][0]["pairs_checked"] == command.pairs


# --- output checks ----------------------------------------------------


def test_digests_cover_every_command():
    for name, workload in WORKLOADS.items():
        assert len(DIGESTS[name]) == len(workload.commands)


def test_corrupted_row_is_counted_as_failed():
    outputs = worker.run_pass(MLKEM_CLI, 0, cli)
    assert count_failures(MLKEM_CLI, 0, outputs) == 0
    # The commands of this workload take no seed, so digests hold at any seed.
    assert count_failures(MLKEM_CLI, 12345, outputs) == 0
    code, text = outputs[0]
    doc = json.loads(text)
    doc["rows"][100]["zeros"] += 1
    outputs[0] = (code, json.dumps(doc))
    failed = count_failures(MLKEM_CLI, 0, outputs)
    assert failed / len(MLKEM_CLI.commands) > 0
    assert failed == 1
    outputs[1] = (1, outputs[1][1])
    assert count_failures(MLKEM_CLI, 0, outputs) == 2
    outputs[2] = (0, "not json")
    assert count_failures(MLKEM_CLI, 0, outputs) == 3


def test_invariants_checked_off_the_default_seed():
    row = {
        "row": "case",
        "trichotomy_ok": True,
        "conservation_ok": True,
        "routes_agree": True,
        "equiv": "skipped",
    }
    mismatch = {"row": "mismatch", "trichotomy_ok": None, "equiv": None}
    doc = {"summary": {"passed": True}, "rows": [row, mismatch]}
    assert invariant_problems(0, doc) == []
    assert command_problems(MLDSA_SAMPLED, 1, 7, 0, json.dumps(doc)) == []
    for key, bad in (("routes_agree", False), ("equiv", "fail")):
        broken = {**doc, "rows": [{**row, key: bad}, mismatch]}
        assert len(command_problems(MLDSA_SAMPLED, 1, 7, 0, json.dumps(broken))) == 1
    assert len(command_problems(MLDSA_SAMPLED, 1, 7, 1, json.dumps(doc))) == 1
    failing = {**doc, "summary": {"passed": False}}
    assert len(command_problems(MLDSA_SAMPLED, 1, 7, 0, json.dumps(failing))) == 1


# --- BENCHMARK.json ---------------------------------------------------


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert all(w.on and set(w.on) <= set(WORKLOADS) for w in PER_LAYER)
