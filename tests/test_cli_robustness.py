"""CLI exit codes under injected faults, and single-threaded analysis."""

import json
import os
import threading

import numpy as np
import pytest

import maskwire.cli as cli
import maskwire.gadgets as gadgets
import maskwire.pipeline as pipeline
import maskwire.preimage as preimage
from maskwire.cli import main


def broken_counts(p, xs):
    """One row per secret that breaks mask conservation: one value hit twice, none missed."""
    counts = np.ones((len(xs), p.q), dtype=np.int64)
    counts[:, 0] = 2
    return counts


def empty_counts(p, xs):
    """One row per secret that hits no value at all: no distribution to measure."""
    return np.zeros((len(xs), p.q), dtype=np.uint8)


def three_hit_counts(p, xs):
    """One row per secret with one value hit three times and two values missed:
    the mask mass still adds up to q."""
    counts = np.ones((len(xs), p.q), dtype=np.int64)
    counts[:, :3] = (3, 0, 0)
    return counts


def three_hit_at_secret_5(p, xs):
    """All ones, except secret 5's row gets counts 0, 3, 0 on values 0, 1, 2."""
    counts = np.ones((len(xs), p.q), dtype=np.int8)
    counts[np.asarray(xs) == 5, :3] = (0, 3, 0)
    return counts


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json", "--threads", "1"])
    return code, json.loads(capsys.readouterr().out)


# Min-entropy is withheld only where the mask mass is off; a value hit
# three times keeps its min-entropy, which reads below the floor.
@pytest.mark.parametrize(
    "counts,buckets,max_count,min_entropy_bits",
    [
        pytest.param(broken_counts, (0, 60, 1), 2, None, id="mass-off"),
        pytest.param(three_hit_counts, (2, 58, 0), 3, 4.345774836841731, id="three-hit"),
        pytest.param(empty_counts, (61, 0, 0), 0, None, id="no-value-hit"),
    ],
)
def test_analyze_reports_broken_conservation(
    monkeypatch, capsys, counts, buckets, max_count, min_entropy_bits
):
    monkeypatch.setattr(cli, "counts_closedform_all", counts)
    code, doc = run_json(capsys, "analyze", "--q", "61", "--s", "6")
    assert code == 1
    assert doc["summary"]["passed"] is False
    assert len(doc["rows"]) == 61
    row = doc["rows"][0]
    assert (row["zeros"], row["ones"], row["twos"]) == buckets
    assert row["max_count"] == max_count
    assert row["min_entropy_bits"] == min_entropy_bits
    if min_entropy_bits is not None:
        assert row["min_entropy_bits"] < row["floor_bits"]


def test_witness_whose_masks_fail_the_recheck_exits_1_with_its_report(monkeypatch, capsys):
    original = preimage.barrett_algebraic_eval_vec
    monkeypatch.setattr(
        preimage, "barrett_algebraic_eval_vec", lambda p, x, m: original(p, x, m) + 1
    )
    code, doc = run_json(capsys, "witness", "--q", "3329", "--s", "24")
    assert code == 1
    assert doc["summary"] == {"passed": False, "found": True}
    (row,) = doc["rows"]
    assert (row["found"], row["mask_a"], row["mask_b"]) == (True, 0, 2385)


def test_trichotomy_failure_renders_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(preimage, "counts_closedform_all", three_hit_at_secret_5)
    code, doc = run_json(capsys, "trichotomy", "--q", "61", "--s", "6")
    assert code == 1
    assert doc["summary"] == {"passed": False, "secrets_checked": 6}
    (row,) = doc["rows"]
    assert (row["cx_secret"], row["cx_value"], row["cx_count"]) == (5, 1, 3)
    assert (row["pairs_checked"], row["max_count_seen"]) == (366, 3)
    assert row["route"] == "closedform"


def test_equiv_mismatch_renders_its_pair(monkeypatch, capsys):
    # At q = 61 the pair (17, 42) is pair 17 * 61 + 42 = 1079 of the
    # exhaustive scan; both forms send it to 39 until the fault.  The scan
    # evaluates the two-branch form at every pair and the s-bit form once
    # a difference x - m, so the pair's fault goes in the two-branch form.
    original = preimage.barrett_algebraic_eval_vec

    def off_by_one_at_17_42(p, x, m):
        out = original(p, x, m)
        out[(np.asarray(x) == 17) & (np.asarray(m) == 42)] += 1
        return out

    monkeypatch.setattr(preimage, "barrett_algebraic_eval_vec", off_by_one_at_17_42)
    code, doc = run_json(capsys, "equiv", "--q", "61", "--s", "6")
    assert code == 1
    assert doc["summary"] == {"passed": False, "pairs_checked": 1080}
    (row,) = doc["rows"]
    assert (row["passed"], row["pairs_checked"], row["pair_mode"]) == (False, 1080, "exhaustive")
    assert (row["mm_secret"], row["mm_mask"], row["mm_algebraic"], row["mm_hw"]) == (17, 42, 40, 39)


SLICES = gadgets._two_branch_slices


def late_wrap_bound(q, r, x, m):
    """The slice form with its wrap bound x + 1 + r one mask late: that mask reads -1."""
    out = SLICES(q, r, x, m)
    for row, x in zip(out, x.ravel().tolist()):
        if r and 0 <= x + 1 + r - m.start < len(m):
            row[x + 1 + r - m.start] -= q
    return out


def late_wrap_in_range(q, r, x, m):
    """The slice form with its wrap bound one mask late and the offset with it: r + 1."""
    return SLICES(q, r + 1 if r else 0, x, m)


@pytest.mark.parametrize(
    "mutant",
    [pytest.param(late_wrap_bound, id="bound"), pytest.param(late_wrap_in_range, id="offset")],
)
def test_slice_form_mutant_is_caught_by_routes_it_shares_no_code_with(
    monkeypatch, capsys, tmp_path, mutant
):
    # The exhaustive equivalence scan compares the slice form with the
    # s-bit form: SLICE_MIN_ROW 1 sends q = 61's rows to the slice form.
    calls = []
    monkeypatch.setattr(gadgets, "_two_branch_slices", lambda *a: calls.append(1) or mutant(*a))
    with monkeypatch.context() as patched:
        patched.setattr(gadgets, "SLICE_MIN_ROW", 1)
        code, doc = run_json(capsys, "equiv", "--q", "61", "--s", "6", "--exhaustive")
    assert calls and code == 1 and doc["summary"]["passed"] is False
    # A sampled sweep case enumerates 16 rows of 16,411 masks by slices
    # against the closed form.  A bound moved alone puts -1 on the wire,
    # which the tally rejects as a library fault (exit 1, no rows); moved
    # with its offset, the wire stays in the ring and the routes disagree
    # (exit 1, the case row says so).
    calls.clear()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cases": [{"q": 16411, "s": 10}]}))
    code = main(["sweep", "--config", str(config), "--format", "json"])
    out, err = capsys.readouterr()
    assert calls and code == 1
    if mutant is late_wrap_bound:
        assert out == "" and "wire value outside [0, 16411)" in err
    else:
        case = json.loads(out)["rows"][0]
        assert case["secret_mode"] == "sampled" and case["routes_agree"] is False


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


def test_sweep_summary_adds_up_its_case_rows(monkeypatch, capsys, tmp_path):
    # Only q = 61 is broken: the summary counts one hard failure, q = 7
    # keeps every flag, and the mismatch totals are the case rows' sums.
    def broken_at_61(p, xs):
        return broken_counts(p, xs) if p.q == 61 else preimage.counts_closedform_all(p, xs)

    monkeypatch.setattr(cli, "counts_closedform_all", broken_at_61)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cases": [{"q": 61, "s": 6}, {"q": 7, "s": 3}]}))
    code, doc = run_json(capsys, "sweep", "--config", str(config))
    assert code == 1
    summary = doc["summary"]
    assert (summary["passed"], summary["hard_failures"]) == (False, 1)
    cases = {row["q"]: row for row in doc["rows"] if row["row"] == "case"}
    assert cases[61]["conservation_ok"] is False
    flags = ("trichotomy_ok", "conservation_ok", "routes_agree")
    assert [cases[7][flag] for flag in flags] == [True, True, True]
    assert cases[7]["equiv"] == "ok"
    for key in ("paper_gap_mismatches", "extended_gap_mismatches"):
        assert summary[key] == sum(row[key] for row in cases.values())
    assert summary["extended_gap_mismatches"] == cases[61]["extended_gap_mismatches"] > 0


def test_sweep_reports_route_disagreement(monkeypatch, capsys, tmp_path):
    # q > 2^14 samples secrets and enumerates each one; on disagreement the
    # enumerated counts, not the broken closed form, feed the histogram.
    monkeypatch.setattr(cli, "counts_closedform_all", broken_counts)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cases": [{"q": 16411, "s": 10}]}))
    code, doc = run_json(capsys, "sweep", "--config", str(config))
    assert code == 1
    case = doc["rows"][0]
    assert case["secret_mode"] == "sampled"
    assert case["routes_agree"] is False
    assert case["conservation_ok"] is True
    assert case["max_count"] == 2
    assert doc["summary"]["hard_failures"] == 1


def test_sweep_rejects_a_bad_case_before_counting(monkeypatch, capsys, tmp_path):
    # Every case's ring is built before the first case is counted, so the
    # bad second case stops the run before q = 12289 is counted at all.
    calls = []

    def counted(p, xs):
        calls.append(p.q)
        return preimage.counts_closedform_all(p, xs)

    monkeypatch.setattr(cli, "counts_closedform_all", counted)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"cases": [{"q": 12289, "s": 28}, {"q": 2147483648, "s": 40}]}))
    code = main(["sweep", "--config", str(config), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "modulus 2147483648 exceeds supported bound 2147483647" in captured.err
    assert calls == []


def test_compose_rejects_a_modulus_past_the_bound_before_counting(monkeypatch, capsys):
    # No barrett stage builds a BarrettParams here: the identity gadget's
    # own q check must stop the run before either wire is enumerated.  A
    # count would take 8 GiB a secret, so the patched route refuses to run.
    def refuse(g, xs):
        raise AssertionError(f"counted a wire at q={g.q}")

    monkeypatch.setattr(pipeline, "counts_bruteforce_all", refuse)
    argv = ["compose", "--q", "2147483648", "--s", "40", "--stages", "identity,identity"]
    code = main([*argv, "--mode", "fresh", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "maskwire: error: modulus 2147483648 exceeds supported bound 2147483647\n"
    )


def test_threads_flag_starts_no_thread(monkeypatch, capsys):
    started = []

    def refuse(thread):
        started.append(thread.name)
        raise AssertionError("analysis started a thread")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code = main(["analyze", "--q", "97", "--s", "7", "--format", "json", "--threads", "100000"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 97
    assert started == []
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--q", "97", "--s", "7", "--threads", "0"])
    assert exc.value.code == 2


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def exhausted(p, xs):
        raise MemoryError("Unable to allocate 2.00 GiB for an array with shape (2147483647,)")

    monkeypatch.setattr(cli, "counts_closedform_all", exhausted)
    code = main(["analyze", "--q", "61", "--s", "6", "--format", "json", "--threads", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("maskwire: error: out of memory")
    assert "2.00 GiB" in err
