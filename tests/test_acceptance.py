"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test prints ACCEPT-NN PASS/FAIL with capture suspended so the
verdicts stay visible in ordinary pytest runs, then asserts.  Budgets
are wall-clock upper bounds; the measured times sit far below them on
any recent machine.
"""

import json
import time

import numpy as np

from maskwire.cli import main
from maskwire.gadgets import BarrettParams, make_barrett_gadget
from maskwire.preimage import (
    count_closedform,
    counts_bruteforce_all,
    counts_closedform_all,
    equivalence_check,
    sample_secrets,
)

from reference import ceil_log2, ref_wire


def _verdict(capsys, num: int, ok: bool, text: str) -> None:
    label = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPT-{num:02d} {label} {text}", flush=True)


def _run_json(capsys, *argv):
    start = time.perf_counter()
    code = main([*argv, "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    return code, json.loads(out), elapsed


REFERENCE_SECRETS = [0, 100, 832, 1664, 2496, 3327, 3328]
REFERENCE_UNREACHABLE = [1, 101, 833, 944, 832, 1, 0]


def test_c01_analyze_reference_secrets(capsys):
    ok = False
    try:
        argv = ["analyze", "--q", "3329", "--s", "24"]
        for x in REFERENCE_SECRETS:
            argv += ["--secret", str(x)]
        code, doc, elapsed = _run_json(capsys, *argv)
        assert code == 0
        rows = doc["rows"]
        assert [r["secret"] for r in rows] == REFERENCE_SECRETS
        assert [r["zeros"] for r in rows] == REFERENCE_UNREACHABLE
        assert all(r["zeros"] == r["twos"] for r in rows)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _verdict(capsys, 1, ok, "analyze q=3329: unreachable counts match, zeros=twos, <1s")


def test_c02_trichotomy(capsys):
    ok = False
    try:
        code, doc, elapsed = _run_json(
            capsys, "trichotomy", "--q", "3329", "--s", "24", "--exhaustive"
        )
        assert code == 0
        assert doc["rows"][0]["passed"] is True
        assert doc["rows"][0]["max_count_seen"] == 2
        assert elapsed < 10.0, f"took {elapsed:.3f}s"
        for q in (7, 61, 64):
            s = str(ceil_log2(q))
            code, doc, _ = _run_json(
                capsys, "trichotomy", "--q", str(q), "--s", s,
                "--exhaustive", "--oracle",
            )
            assert code == 0
            assert doc["rows"][0]["passed"] is True
            assert doc["rows"][0]["route"] == "bruteforce"
        ok = True
    finally:
        _verdict(capsys, 2, ok, "trichotomy exhaustive q=3329 <10s; oracle q=7,61,64")


def test_c03_witness(capsys):
    ok = False
    try:
        code, doc, _ = _run_json(capsys, "witness", "--q", "3329", "--s", "24")
        assert code == 0
        row = doc["rows"][0]
        assert row["found"] is True and row["count"] == 2
        x, v = row["secret"], row["value"]
        ma, mb = row["mask_a"], row["mask_b"]
        assert ma != mb
        assert ref_wire(3329, 24, x, ma) == v
        assert ref_wire(3329, 24, x, mb) == v
        p = BarrettParams.create(3329, 24)
        g = make_barrett_gadget(p)
        assert counts_bruteforce_all(g, x)[v] == 2
        # The documented collision pair must verify as well.
        assert count_closedform(p, 100, 0) == 2
        assert counts_bruteforce_all(g, 100)[0] == 2
        ok = True
    finally:
        _verdict(capsys, 3, ok, "witness q=3329 valid collision; (x=100,v=0) has count 2")


def test_c04_equivalence(capsys):
    ok = False
    try:
        code, doc, elapsed = _run_json(
            capsys, "equiv", "--q", "3329", "--s", "24", "--exhaustive",
            "--threads", "1",
        )
        assert code == 0
        assert doc["rows"][0]["pairs_checked"] == 11082241
        assert elapsed < 60.0, f"took {elapsed:.3f}s"
        for q in range(1, 65):
            for s in range(ceil_log2(q), 13):
                rep = equivalence_check(BarrettParams.create(q, s))
                assert rep.passed, f"mismatch at q={q}, s={s}: {rep}"
                assert rep.pairs_checked == q * q
        ok = True
    finally:
        _verdict(capsys, 4, ok, "equiv 11082241 pairs <60s; exhaustive q<=64 all widths")


def test_c05_entropy_presets(capsys):
    ok = False
    try:
        code, doc, _ = _run_json(capsys, "entropy", "--preset", "mlkem")
        assert code == 0
        row = doc["rows"][0]
        assert abs(row["floor_bits"] - 10.70) <= 0.01
        assert abs(row["log2_q"] - 11.70) <= 0.01
        code, doc, _ = _run_json(capsys, "entropy", "--preset", "mldsa")
        assert code == 0
        row = doc["rows"][0]
        assert abs(row["floor_bits"] - 21.99) <= 0.01
        assert abs(row["log2_q"] - 22.99) <= 0.01
        ok = True
    finally:
        _verdict(capsys, 5, ok, "entropy floors: mlkem 10.70/11.70, mldsa 21.99/22.99")


def test_c06_dual_route_grid(capsys):
    ok = False
    try:
        start = time.perf_counter()
        for q in range(1, 65):
            for s in range(ceil_log2(q), 13):
                p = BarrettParams.create(q, s)
                g = make_barrett_gadget(p)
                for x in range(q):
                    bf = counts_bruteforce_all(g, x)
                    for v in range(q):
                        assert count_closedform(p, x, v) == bf[v], (
                            f"routes disagree at q={q} s={s} x={x} v={v}"
                        )
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, 6, ok, "closed form == enumeration on all (x,v), q<=64, <5min")


def test_c07_conservation_everywhere(capsys):
    ok = False
    try:
        def conserved(q, counts):
            zeros = int(np.count_nonzero(counts == 0))
            ones = int(np.count_nonzero(counts == 1))
            twos = int(np.count_nonzero(counts == 2))
            return zeros + ones + twos == q and ones + 2 * twos == q and zeros == twos

        for q in range(1, 65):
            for s in (ceil_log2(q), ceil_log2(q) + 3, 12):
                p = BarrettParams.create(q, s)
                g = make_barrett_gadget(p)
                for x in range(q):
                    assert conserved(q, counts_closedform_all(p, x))
                    assert conserved(q, counts_bruteforce_all(g, x))
        p = BarrettParams.create(3329, 24)
        for x in range(3329):
            assert conserved(3329, counts_closedform_all(p, x))
        p = BarrettParams.create(8380417, 48)
        g = make_barrett_gadget(p)
        for x in sample_secrets(8380417, 16):
            assert conserved(8380417, counts_bruteforce_all(g, x))
        ok = True
    finally:
        _verdict(capsys, 7, ok, "zeros=twos and ones+2*twos=q on every profile checked")


def test_c08_compose_fresh(capsys):
    ok = False
    try:
        code, doc, _ = _run_json(
            capsys, "compose", "--q", "3329", "--s", "24",
            "--stages", "identity,barrett", "--mode", "fresh",
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["wire1_max_mult"] == 1
        assert row["wire2_max_mult"] == 2
        assert row["pipeline_max_mult"] == 2
        assert row["fresh_bound_holds"] is True
        code, doc, _ = _run_json(
            capsys, "compose", "--q", "3329", "--s", "24",
            "--stages", "identity,identity", "--mode", "fresh",
        )
        assert code == 0
        assert doc["rows"][0]["pipeline_max_mult"] == 1
        ok = True
    finally:
        _verdict(capsys, 8, ok, "fresh compose: identity+barrett (1,2)->2, identity pair->1")


def test_c09_compose_shared(capsys):
    ok = False
    try:
        code, doc, _ = _run_json(
            capsys, "compose", "--q", "7",
            "--stages", "identity,identity", "--mode", "shared",
        )
        assert code == 0
        assert doc["rows"][0]["pipeline_max_mult"] == 1
        assert doc["rows"][0]["secrets_checked"] == 7
        code, doc, _ = _run_json(
            capsys, "compose", "--q", "4",
            "--stages", "identity,identity", "--mode", "shared",
        )
        assert code == 0
        assert doc["rows"][0]["pipeline_max_mult"] == 2
        assert doc["rows"][0]["secrets_checked"] == 4
        ok = True
    finally:
        _verdict(capsys, 9, ok, "shared compose: identity pair q=7 -> 1, q=4 -> 2")


def test_c10_sweep(tmp_path, capsys):
    ok = False
    try:
        cfg = tmp_path / "primes.json"
        cfg.write_text(
            json.dumps(
                {
                    "cases": [
                        {"q": 3329, "s": 24},
                        {"q": 7681, "s": 26},
                        {"q": 4591, "s": 25},
                        {"q": 12289, "s": 28},
                        {"q": 7, "s": 3},
                    ]
                }
            )
        )
        code, doc, _ = _run_json(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        cases = [r for r in doc["rows"] if r["row"] == "case"]
        assert [c["q"] for c in cases] == [3329, 7681, 4591, 12289, 7]
        for c in cases:
            assert c["secret_mode"] == "exhaustive"
            assert c["extended_gap_mismatches"] == 0
            assert c["trichotomy_ok"] and c["conservation_ok"]
            assert c["equiv"] == "ok"
        mismatches = [r for r in doc["rows"] if r["row"] == "mismatch"]
        assert any(
            m["q"] == 7 and m["formula"] == "paper" and m["secret"] == 3
            and m["observed"] == 1 and m["predicted"] == 3
            for m in mismatches
        )
        cfg2 = tmp_path / "big.json"
        cfg2.write_text(json.dumps({"cases": [{"q": 8380417, "s": 48}]}))
        code, doc, elapsed = _run_json(capsys, "sweep", "--config", str(cfg2))
        assert code == 0
        (case,) = [r for r in doc["rows"] if r["row"] == "case"]
        assert case["secret_mode"] == "sampled"
        assert case["secrets_checked"] == 16
        assert case["routes_agree"] is True
        assert case["extended_gap_mismatches"] == 0
        assert case["trichotomy_ok"] and case["conservation_ok"]
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(
            capsys, 10, ok, "sweep: primes exhaustive clean, q=7 paper miss surfaced, "
            "q=8380417 enumerated <10min",
        )
