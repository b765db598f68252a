"""CLI behavior: formats, determinism, exit codes, config handling."""

import json
import math

import numpy as np
import pytest

from maskwire import cli, preimage
from maskwire.cli import main
from maskwire.leakage import MAX_LEAKAGE_BITS, floor_bits
from maskwire.gadgets import BarrettParams, lane_dtype
from maskwire.preimage import MultiplicityProfile, block_rows, counts_closedform_all


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_analyze_json_envelope(capsys):
    code, doc, _ = run_json(
        capsys, "analyze", "--q", "3329", "--s", "24", "--secret", "100"
    )
    assert code == 0
    assert doc["tool_version"]
    assert doc["command"] == "analyze"
    assert doc["parameters"]["q"] == 3329
    assert doc["parameters"]["r"] == 2385
    assert doc["summary"]["passed"] is True
    assert "elapsed_ms" in doc
    (row,) = doc["rows"]
    assert row["secret"] == 100
    assert row["zeros"] == row["twos"] == 101
    assert row["max_count"] == 2
    assert row["gap_extended"] == 101


def test_analyze_csv_shape(capsys):
    code, out, err = run(
        capsys,
        "analyze", "--q", "3329", "--s", "24", "--secret", "0", "--secret", "3328",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("secret,zeros,ones,twos,max_count,support,")
    assert len(lines) == 3
    assert '"' not in out
    # Floats use fixed six-decimal rendering.
    assert "10.700873" in lines[1]
    assert "11.700873" in lines[2]
    assert err.startswith("summary: passed=true")


def test_analyze_default_scope_small_q(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--q", "61", "--s", "6")
    assert code == 0
    assert doc["parameters"]["secret_mode"] == "exhaustive"
    assert len(doc["rows"]) == 61


def test_analyze_sampled_deterministic(capsys):
    args = ("analyze", "--q", "8380417", "--s", "48", "--format", "csv")
    code1, out1, _ = run(capsys, *args, "--threads", "1")
    code2, out2, _ = run(capsys, *args, "--threads", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 17  # header + 16 sampled secrets


def test_analyze_seed_changes_sample(capsys):
    base = ("analyze", "--q", "8380417", "--s", "48", "--sample", "4", "--format", "csv")
    _, out0, _ = run(capsys, *base, "--seed", "0")
    _, out1, _ = run(capsys, *base, "--seed", "1")
    assert out0 != out1


def test_sample_and_seed_echoed_in_envelope(capsys):
    _, doc, _ = run_json(capsys, "analyze", "--q", "8380417", "--s", "48")
    assert doc["parameters"]["sample"] == 16
    assert doc["parameters"]["seed"] == 0
    _, doc, _ = run_json(capsys, "analyze", "--q", "61", "--s", "6")
    assert doc["parameters"]["sample"] == "-"
    _, doc, _ = run_json(
        capsys, "trichotomy", "--q", "8380417", "--s", "48", "--sample", "5", "--seed", "9"
    )
    assert doc["parameters"]["sample"] == 5
    assert doc["parameters"]["seed"] == 9
    _, doc, _ = run_json(capsys, "equiv", "--q", "8380417", "--s", "48")
    assert doc["parameters"]["sample"] == 10**6
    assert doc["parameters"]["seed"] == 0


# Expected values recorded from the CLI before the scope rule was merged
# into one function, now cli._secret_scope, except that a --sample
# covering all q secrets now reports exhaustive: the mode follows
# coverage.  The rows at q = 4096 and 4097 sit on either side of the
# compose and equiv limits, which are inclusive.  Sweep entries read the
# case row, whose secrets_checked stands in for the sample size.
@pytest.mark.parametrize(
    "argv,secret_mode,sample",
    [
        (("analyze", "--q", "61", "--s", "6", "--secret", "5", "--secret", "3"), "explicit", "-"),
        (("analyze", "--q", "61", "--s", "6", "--all-secrets"), "exhaustive", "-"),
        (("analyze", "--q", "3329", "--s", "24", "--sample", "4"), "sampled", 4),
        (("analyze", "--q", "61", "--s", "6", "--sample", "100"), "exhaustive", "-"),
        (("analyze", "--q", "61", "--s", "6"), "exhaustive", "-"),
        (("analyze", "--q", "65537", "--s", "34"), "sampled", 16),
        (("trichotomy", "--q", "61", "--s", "6", "--exhaustive"), "exhaustive", "-"),
        (("trichotomy", "--q", "3329", "--s", "24", "--sample", "4"), "sampled", 4),
        (("trichotomy", "--q", "61", "--s", "6", "--sample", "100"), "exhaustive", "-"),
        (("trichotomy", "--q", "61", "--s", "6"), "exhaustive", "-"),
        (("trichotomy", "--q", "65537", "--s", "34"), "sampled", 16),
        (("compose", "--q", "61", "--s", "6", "--stages", "identity,barrett",
          "--mode", "fresh"), None, "-"),
        (("compose", "--q", "4099", "--s", "13", "--stages", "identity,barrett",
          "--mode", "shared"), None, 16),
        (("sweep", {"q": 61, "s": 6}), "exhaustive", 61),
        (("sweep", {"q": 16411, "s": 10}), "sampled", 16),
        (("compose", "--q", "4096", "--stages", "identity,identity", "--mode", "fresh"),
         None, "-"),
        (("compose", "--q", "4097", "--stages", "identity,identity", "--mode", "fresh"),
         None, 16),
        (("equiv", "--q", "4096", "--s", "13"), None, "-"),
        (("equiv", "--q", "4097", "--s", "13"), None, 10**6),
    ],
)
def test_secret_scope_echoed(capsys, tmp_path, argv, secret_mode, sample):
    if argv[0] == "sweep":
        cfg = tmp_path / "cases.json"
        cfg.write_text(json.dumps({"cases": [argv[1]]}))
        argv = ("sweep", "--config", str(cfg))
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    if argv[0] == "sweep":
        case = doc["rows"][0]
        got = (case["secret_mode"], case["secrets_checked"])
    else:
        got = (doc["parameters"].get("secret_mode"), doc["parameters"]["sample"])
    assert got == (secret_mode, sample)


def test_every_secret_profiled_through_from_counts(monkeypatch, capsys, tmp_path):
    # analyze and sweep profile each scan block in one from_counts call,
    # so its per-call timing measures a block's work and the secrets
    # handed over, in call order, are every secret once.
    calls = []
    original = MultiplicityProfile.from_counts.__func__

    def counted(cls, secret, q, counts):
        calls.append(secret.tolist())
        return original(cls, secret, q, counts)

    def blocks(q):
        return -(-q // block_rows(q, lane_dtype(q)))

    monkeypatch.setattr(MultiplicityProfile, "from_counts", classmethod(counted))
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 61, "s": 6}]}))
    for argv, q in (
        (("analyze", "--q", "97", "--s", "7"), 97),
        (("analyze", "--q", "4591", "--s", "25"), 4591),
        (("sweep", "--config", str(cfg)), 61),
    ):
        calls.clear()
        code, _, _ = run_json(capsys, *argv)
        assert code == 0
        assert [x for block in calls for x in block] == list(range(q))
        assert len(calls) == blocks(q)
    assert blocks(4591) == 328  # 14 secrets a block in int16


def test_analyze_secret_out_of_range(monkeypatch, capsys):
    code, out, err = run(capsys, "analyze", "--q", "3329", "--s", "24", "--secret", "3329")
    assert code == 2
    assert "error" in err
    # The whole list is checked before any counting: at q = 40961 each
    # secret is a block of its own, so 0 and 5 would be profiled first.
    # Past int64 numpy cannot hold the secret; the message still names it.
    calls = []
    original = MultiplicityProfile.from_counts.__func__

    def counted(cls, secret, q, counts):
        calls.append(secret)
        return original(cls, secret, q, counts)

    monkeypatch.setattr(MultiplicityProfile, "from_counts", classmethod(counted))
    for q, s, secrets in (("40961", "34", [0, 5, 40961]), ("61", "6", [0, 2**64])):
        argv = ["analyze", "--q", q, "--s", s]
        for x in secrets:
            argv += ["--secret", str(x)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"maskwire: error: secret {secrets[-1]} not canonical for modulus {q}\n"
    assert calls == []


def test_trichotomy_exit_zero(capsys):
    code, doc, _ = run_json(
        capsys, "trichotomy", "--q", "3329", "--s", "24", "--exhaustive"
    )
    assert code == 0
    (row,) = doc["rows"]
    assert row["passed"] is True
    assert row["pairs_checked"] == 3329 * 3329
    assert row["max_count_seen"] == 2
    assert row["cx_secret"] is None


def test_trichotomy_oracle_route(capsys):
    code, doc, _ = run_json(
        capsys, "trichotomy", "--q", "61", "--s", "6", "--exhaustive", "--oracle"
    )
    assert code == 0
    assert doc["rows"][0]["route"] == "bruteforce"


def test_equiv_exhaustive(capsys):
    code, doc, _ = run_json(capsys, "equiv", "--q", "61", "--s", "6", "--exhaustive")
    assert code == 0
    assert doc["rows"][0]["pairs_checked"] == 61 * 61
    assert doc["rows"][0]["pair_mode"] == "exhaustive"


def test_equiv_exhaustive_past_62_bits(capsys):
    # s > 62 takes the Python-int fallback, which gets a column of
    # secrets against a row of masks like the int lanes.
    code, doc, _ = run_json(capsys, "equiv", "--q", "5", "--s", "70", "--exhaustive")
    assert code == 0
    assert doc["rows"][0]["passed"] is True
    assert doc["rows"][0]["pairs_checked"] == 25


def test_equiv_scope_violation_is_usage_error(capsys):
    code, out, err = run(capsys, "equiv", "--q", "5", "--s", "2", "--exhaustive")
    assert code == 2
    assert out == ""
    assert "q <= 2^s" in err


def test_entropy_presets(capsys):
    # Each preset's one row: log2(q), the floor one bit below it, and the bit lost.
    for name, q, s, log2_q, floor in (
        ("mlkem", 3329, 24, 11.7009, 10.7009),
        ("mldsa", 8380417, 48, 22.9986, 21.9986),
    ):
        code, doc, _ = run_json(capsys, "entropy", "--preset", name)
        assert code == 0
        (row,) = doc["rows"]
        assert (row["name"], row["q"], row["s"]) == (name, q, s)
        assert math.isclose(row["log2_q"], log2_q, abs_tol=1e-4)
        assert math.isclose(row["floor_bits"], floor, abs_tol=1e-4)
        assert row["floor_bits"] == floor_bits(q)
        assert row["max_leakage_bits"] == MAX_LEAKAGE_BITS == 1.0


def test_entropy_custom_and_usage_errors(capsys):
    code, doc, _ = run_json(capsys, "entropy", "--q", "3329", "--s", "24")
    assert code == 0
    assert doc["rows"][0]["name"] == "custom"
    # The smallest ring: log2(2) = 1 bit, all of it the bit lost.
    code, doc, _ = run_json(capsys, "entropy", "--q", "2", "--s", "1")
    (row,) = doc["rows"]
    assert code == 0 and row["log2_q"] == 1.0 and row["floor_bits"] == 0.0
    code, _, _ = run(capsys, "entropy", "--preset", "mlkem", "--q", "7")
    assert code == 2
    code, _, _ = run(capsys, "entropy", "--q", "7")
    assert code == 2
    code, _, _ = run(capsys, "entropy")
    assert code == 2


def test_witness_found_and_degenerate(capsys):
    code, doc, _ = run_json(capsys, "witness", "--q", "3329", "--s", "24")
    assert code == 0
    (row,) = doc["rows"]
    assert row["found"] is True
    assert row["count"] == 2
    assert row["mask_a"] != row["mask_b"]
    code, doc, _ = run_json(capsys, "witness", "--q", "16", "--s", "4")
    assert code == 0
    assert doc["rows"][0]["found"] is False


def test_compose_fresh_and_shared(capsys):
    code, doc, _ = run_json(
        capsys,
        "compose", "--q", "3329", "--s", "24",
        "--stages", "identity,barrett", "--mode", "fresh",
    )
    assert code == 0
    row = doc["rows"][0]
    assert (row["wire1_max_mult"], row["wire2_max_mult"]) == (1, 2)
    assert row["pipeline_max_mult"] == 2

    code, doc, _ = run_json(
        capsys, "compose", "--q", "4", "--stages", "identity,identity",
        "--mode", "shared",
    )
    assert code == 0  # shared-mode bound break is reported, not asserted
    row = doc["rows"][0]
    assert row["pipeline_max_mult"] == 2
    assert row["product_bound_holds"] is False


def test_compose_shared_barrett_pair_exceeds_the_product_bound(capsys):
    # r = 2: one mask through both stages sends secret 0 to value 0 for
    # five of the six masks.  Shared results are data, so the run exits 0.
    code, doc, _ = run_json(
        capsys, "compose", "--q", "6", "--s", "1", "--stages", "barrett,barrett",
        "--mode", "shared",
    )
    assert code == 0
    assert doc["rows"] == [
        {
            "mode": "shared",
            "q": 6,
            "stages": "barrett+barrett",
            "wire1_max_mult": 2,
            "wire2_max_mult": 5,
            "pipeline_max_mult": 5,
            "bound_fresh": 2,
            "bound_product": 4,
            "fresh_bound_holds": False,
            "product_bound_holds": False,
            "secrets_checked": 6,
        }
    ]


def test_compose_usage_errors(capsys):
    code, _, err = run(
        capsys, "compose", "--q", "7", "--stages", "identity,barrett", "--mode", "fresh"
    )
    assert code == 2 and "--s" in err
    code, _, err = run(
        capsys, "compose", "--q", "7", "--stages", "identity", "--mode", "fresh"
    )
    assert code == 2
    code, _, err = run(
        capsys, "compose", "--q", "7", "--stages", "identity,nttmul", "--mode", "fresh"
    )
    assert code == 2


def test_missing_required_args_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--q", "3329"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compose", "--q", "7", "--stages", "identity,identity"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


def test_sweep_case_and_mismatch_rows(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 7, "s": 3}, {"q": 16, "s": 4}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    rows = doc["rows"]
    cases = [r for r in rows if r["row"] == "case"]
    mismatches = [r for r in rows if r["row"] == "mismatch"]
    assert [c["q"] for c in cases] == [7, 16]
    assert all(
        c["trichotomy_ok"] and c["conservation_ok"] and c["equiv"] == "ok"
        for c in cases
    )
    assert cases[0]["paper_gap_mismatches"] == 4
    assert cases[0]["extended_gap_mismatches"] == 0
    # r = 0 at q=16, s=4: bijection, yet the three-term predictor reports
    # min(x+1, 15-x) > 0 for every x but 15.  The extended form nails it.
    assert cases[1]["paper_gap_mismatches"] == 15
    assert cases[1]["extended_gap_mismatches"] == 0
    seven = {
        (m["secret"], m["observed"], m["predicted"])
        for m in mismatches
        if m["q"] == 7
    }
    assert seven == {(1, 1, 2), (2, 1, 3), (3, 1, 3), (4, 1, 2)}
    assert all(m["formula"] == "paper" for m in mismatches)


def test_sweep_default_width(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 3329}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert doc["rows"][0]["s"] == 24  # twice the bit size of q


def test_sweep_csv_single_header(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 7, "s": 3}]}))
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].count(",") == lines[1].count(",")
    assert len(lines) == 1 + 1 + 4  # header, case row, four mismatch rows
    assert lines[1].startswith("case,7,3,1,")
    assert lines[2].startswith("mismatch,7,3,1,")
    assert "summary:" in err


def test_sweep_strict_formula_clean(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 3329, "s": 24}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg), "--strict-formula")
    assert code == 0
    assert doc["summary"]["paper_gap_mismatches"] == 0
    assert doc["summary"]["extended_gap_mismatches"] == 0


def test_sweep_strict_formula_promotes_mismatch(tmp_path, capsys):
    # q=7, s=3 is clean on every asserted invariant but disagrees with the
    # narrow gap formula at four secrets; only --strict-formula makes that
    # disagreement fatal.
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 7, "s": 3}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert doc["summary"]["paper_gap_mismatches"] == 4
    assert doc["summary"]["hard_failures"] == 0
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg), "--strict-formula")
    assert code == 1
    assert doc["summary"]["hard_failures"] == 0
    assert any(
        r["row"] == "mismatch" and r["secret"] == 3 and r["formula"] == "paper"
        for r in doc["rows"]
    )


def test_sweep_mismatch_rows_capped(tmp_path, capsys):
    # At (1021, 10), r = 3, the paper formula misses 1,014 secrets; the case
    # row counts them all, but only MISMATCH_ROW_CAP of them get a row.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cases": [{"q": 1021, "s": 10}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    case, *mismatches = doc["rows"]
    assert case["row"] == "case" and case["r"] == 3
    assert case["paper_gap_mismatches"] == 1014
    assert case["extended_gap_mismatches"] == 0
    assert len(mismatches) == cli.MISMATCH_ROW_CAP == 100
    assert {row["row"] for row in mismatches} == {"mismatch"}
    assert {row["formula"] for row in mismatches} == {"paper"}
    secrets = [row["secret"] for row in mismatches]
    assert secrets == sorted(set(secrets))
    assert all(list(row) == list(case) for row in mismatches)
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg), "--strict-formula")
    assert code == 1
    assert doc["summary"]["paper_gap_mismatches"] == 1014


def test_sweep_mismatch_rows_follow_secret_order_per_formula(monkeypatch, tmp_path, capsys):
    # An extended predictor off by one at every third secret: a block may
    # then mismatch in either formula alone or in both, and its rows must
    # be the per-secret reading of the case, paper before extended, each
    # formula under its own cap.  At (61, 5), r = 32, the paper formula
    # never misses; at (1021, 10) it misses 1,014 secrets.
    real = preimage.support_gap_predicted_extended

    def every_third_off(p, x):
        gaps, xs = real(p, x), np.asarray(x).tolist()
        if isinstance(gaps, int):
            return gaps + (xs % 3 == 0)
        return [g + (x % 3 == 0) for g, x in zip(gaps, xs)]

    monkeypatch.setattr(cli, "support_gap_predicted_extended", every_third_off)
    cases = [(61, 5), (1021, 10)]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cases": [{"q": q, "s": s} for q, s in cases]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    expected, tallies = [], []
    for q, s in cases:
        p = BarrettParams.create(q, s)
        tally = {"paper": 0, "extended": 0}
        for x in range(q):
            zeros = MultiplicityProfile.from_counts(x, q, counts_closedform_all(p, x)).zeros
            for formula, predict in (
                ("paper", preimage.support_gap_predicted_paper), ("extended", every_third_off)
            ):
                guess = predict(p, x)
                if guess != zeros:
                    tally[formula] += 1
                    if tally[formula] <= cli.MISMATCH_ROW_CAP:
                        expected.append((q, formula, x, zeros, guess))
        tallies.append((tally["paper"], tally["extended"]))
    got = [
        (row["q"], row["formula"], row["secret"], row["observed"], row["predicted"])
        for row in doc["rows"] if row["row"] == "mismatch"
    ]
    assert got == expected
    assert [
        (row["paper_gap_mismatches"], row["extended_gap_mismatches"])
        for row in doc["rows"] if row["row"] == "case"
    ] == tallies == [(0, 21), (1014, 341)]


def test_sweep_trivial_ring(tmp_path, capsys):
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 1, "s": 0}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg), "--strict-formula")
    assert code == 0
    (case,) = doc["rows"]
    assert case["max_count"] == 1
    assert case["trichotomy_ok"] is True
    assert case["equiv"] == "ok"


def test_sweep_config_rejection(tmp_path, capsys):
    bad = [
        {"cases": [{"q": 7}], "extra": 1},
        {"cases": [{"q": 7, "bits": 3}]},
        {"cases": [{"s": 3}]},
        {"cases": [{"q": 0}]},
        {"cases": [{"q": 7, "s": -1}]},
        {"cases": {"q": 7}},
        [1, 2],
    ]
    for i, doc in enumerate(bad):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2, f"config {i} should be rejected"
        assert "error" in err
    cfg = tmp_path / "notjson.json"
    cfg.write_text("{nope")
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "absent.json"))
    assert code == 2


def closedform_wrap_one_up(p, xs):
    """The closed form with its wrap set moved up one value: still q masks a
    row and zeros = twos, so every row reads conserved."""
    q, r = p.q, p.r
    counts = np.zeros((len(xs), q), dtype=np.uint8)
    for row, x in zip(counts, np.asarray(xs).tolist()):
        row[: x + 1] = 1
        lo = (x + 2 + r) % q
        hi = lo + q - 1 - x
        row[lo:hi] += 1
        row[: max(0, hi - q)] += 1
    return counts


def test_exhaustive_scope_is_cross_checked_by_enumeration(monkeypatch, capsys, tmp_path):
    # Conservation and trichotomy hold, so only the check of the seeded
    # sample against enumeration fails the run; analyze still renders its rows.
    monkeypatch.setattr(cli, "counts_closedform_all", closedform_wrap_one_up)
    code, doc, _ = run_json(capsys, "analyze", "--q", "61", "--s", "6")
    assert code == 1 and doc["parameters"]["secret_mode"] == "exhaustive"
    assert doc["summary"] == {"passed": False, "secrets_checked": 61, "route": "closedform"}
    assert len(doc["rows"]) == 61
    assert all(row["zeros"] == row["twos"] and row["max_count"] <= 2 for row in doc["rows"])
    cfg = tmp_path / "cases.json"
    cfg.write_text(json.dumps({"cases": [{"q": 61, "s": 6}]}))
    code, doc, _ = run_json(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    case = doc["rows"][0]
    assert case["secret_mode"] == "exhaustive" and case["routes_agree"] is False
    assert case["conservation_ok"] is True and case["trichotomy_ok"] is True
    assert doc["summary"]["hard_failures"] == 1


def test_human_format_renders(capsys):
    code, out, _ = run(capsys, "witness", "--q", "3329", "--s", "24")
    assert code == 0
    assert out.startswith("maskwire witness")
    assert "found" in out and "elapsed_ms" in out


def test_rows_byte_identical_across_runs(capsys):
    for argv in (
        ["analyze", "--q", "3329", "--s", "24", "--sample", "8", "--format", "csv"],
        ["trichotomy", "--q", "61", "--s", "6", "--format", "csv"],
        ["equiv", "--q", "8380417", "--s", "48", "--sample", "5000", "--format", "csv"],
        ["compose", "--q", "7", "--stages", "identity,identity", "--mode", "shared",
         "--format", "csv"],
    ):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
