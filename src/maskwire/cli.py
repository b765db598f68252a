"""Command-line front end.

Subcommands map one-to-one onto the library's analysis entry points:

* analyze     per-secret multiplicity profile, gaps, min-entropy
* trichotomy  preimage sizes stay in {0, 1, 2}
* equiv       algebraic form vs hardware-faithful form, pointwise
* entropy     min-entropy floor table for a parameter set or preset
* witness     first two-preimage collision, with its mask pair
* compose     two-stage pipeline under fresh or shared masking
* sweep       batch run over a JSON config of (q, s) cases

Every command fixes its scope, the secrets it scans, in _secret_scope
before it counts.  Exit codes: 0 clean, 1 an asserted invariant failed
(the report still renders), 2 usage or config error, or out of memory.
Result rows are deterministic for identical inputs; only elapsed_ms varies.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

from .gadgets import BarrettParams, make_barrett_gadget, make_identity_gadget
from .leakage import barrier_table, floor_bits, min_entropy
from .pipeline import MODES, PIPELINE_EXHAUSTIVE_LIMIT, PipelineSpec, compose
from .preimage import (
    DEFAULT_SAMPLE_SECRETS,
    DEFAULT_SEED,
    EXHAUSTIVE_SECRET_LIMIT,
    MultiplicityProfile,
    Route,
    _require_canonical,
    counts_bruteforce_all,
    counts_closedform_all,
    equivalence_check,
    sample_secrets,
    scan,
    support_gap_predicted_extended,
    support_gap_predicted_paper,
    tightness_witness_search,
    trichotomy_check,
)
from .presets import PRESETS, get_preset
from .report import FORMATS, ReportEnvelope, render

# Exhaustive (x, m) equivalence sweeps stop here; beyond, pairs are sampled.
EQUIV_EXHAUSTIVE_LIMIT = 2**12
EQUIV_SAMPLE_PAIRS = 10**6

# Sweep cases: exhaustive secrets (closed form) up to the first limit,
# _secret_scope's enumerated-and-cross-checked sample beyond; pointwise
# equivalence runs while the full q^2 sweep stays affordable.  The
# sample size is _secret_scope's own, echoed as parameters.sample.
SWEEP_EXHAUSTIVE_LIMIT = 2**14
SWEEP_EQUIV_LIMIT = 2**16
SWEEP_SAMPLE_SECRETS = DEFAULT_SAMPLE_SECRETS
MISMATCH_ROW_CAP = 100

_SWEEP_COLUMNS = (
    "row",
    "q",
    "s",
    "r",
    "secret_mode",
    "secrets_checked",
    "trichotomy_ok",
    "conservation_ok",
    "routes_agree",
    "equiv",
    "max_count",
    "paper_gap_mismatches",
    "extended_gap_mismatches",
    "formula",
    "secret",
    "observed",
    "predicted",
)

STAGE_NAMES = ("identity", "barrett")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _secret_scope(
    q: int, seed: int, limit: int, explicit: Optional[Sequence[int]] = None,
    every: bool = False, sample: Optional[int] = None,
) -> tuple[Sequence[int], str]:
    """(secrets, secret_mode) from the scope flags, fixed before any counting.

    With no flag: every secret while q <= limit, DEFAULT_SAMPLE_SECRETS
    seeded ones beyond.  A scope that covers all q secrets is exhaustive.
    """
    if explicit is not None:
        # Checked whole before any counting, in the counting route's words.
        for x in explicit:
            _require_canonical("secret", x, q)
        return explicit, "explicit"
    if every or sample is None and q <= limit:
        secrets: Sequence[int] = range(q)
    else:
        secrets = sample_secrets(q, DEFAULT_SAMPLE_SECRETS if sample is None else sample, seed)
    return secrets, "exhaustive" if len(secrets) == q else "sampled"


def _scope_params(
    args, p: BarrettParams, secrets: Sequence[int], secret_mode: str
) -> dict:
    return {
        "q": args.q,
        "s": args.s,
        "r": p.r,
        "secret_mode": secret_mode,
        "sample": len(secrets) if secret_mode == "sampled" else "-",
        "seed": args.seed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskwire",
        description="Preimage-multiplicity and min-entropy analysis of "
        "arithmetic-masked modular-reduction wires.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="human", help="output format"
    )
    common.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; analysis runs on one thread",
    )
    common.add_argument(
        "--seed",
        type=_nonneg_int,
        default=DEFAULT_SEED,
        help="PRNG seed for any sampled scan",
    )
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--q", type=_positive_int, required=True)
    ring.add_argument("--s", type=_nonneg_int, required=True)
    scan_scope = argparse.ArgumentParser(add_help=False)
    scope = scan_scope.add_mutually_exclusive_group()
    scope.add_argument("--exhaustive", action="store_true")
    scope.add_argument("--sample", type=_positive_int, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser(
        "analyze", parents=[common, ring], help="per-secret multiplicity profiles"
    )
    scope = p_an.add_mutually_exclusive_group()
    scope.add_argument(
        "--secret", type=_nonneg_int, action="append", help="analyze this secret (repeatable)"
    )
    scope.add_argument("--all-secrets", action="store_true")
    scope.add_argument("--sample", type=_positive_int, metavar="N")

    p_tr = sub.add_parser(
        "trichotomy", parents=[common, ring, scan_scope], help="preimage sizes never exceed 2"
    )
    p_tr.add_argument(
        "--oracle",
        action="store_true",
        help="count by mask enumeration instead of the closed form",
    )

    sub.add_parser(
        "equiv",
        parents=[common, ring, scan_scope],
        help="algebraic vs hardware-faithful form",
    )

    p_en = sub.add_parser(
        "entropy", parents=[common], help="min-entropy floor for a parameter set"
    )
    p_en.add_argument("--q", type=_positive_int)
    p_en.add_argument("--s", type=_nonneg_int)
    p_en.add_argument("--preset", choices=sorted(PRESETS))

    sub.add_parser(
        "witness", parents=[common, ring], help="first two-preimage collision"
    )

    p_co = sub.add_parser(
        "compose", parents=[common], help="two-stage pipeline multiplicity"
    )
    p_co.add_argument("--q", type=_positive_int, required=True)
    p_co.add_argument(
        "--s", type=_nonneg_int, help="datapath width, required for barrett stages"
    )
    p_co.add_argument(
        "--stages",
        required=True,
        help="comma-separated pair from {identity, barrett}",
    )
    p_co.add_argument("--mode", choices=MODES, required=True)

    p_sw = sub.add_parser(
        "sweep", parents=[common], help="batch analysis from a JSON config"
    )
    p_sw.add_argument("--config", required=True, help="JSON file with a cases list")
    p_sw.add_argument(
        "--strict-formula",
        action="store_true",
        help="exit 1 if either gap predictor mismatches anywhere",
    )
    return parser


def _profile_pass(p: BarrettParams, secrets: Sequence[int], check: Optional[Route] = None):
    """(profile, agree) per secret, in order, from one scan(secrets, closed form, ..., check)."""
    def profiles(xs, counts):
        return [
            MultiplicityProfile.from_counts(x, p.q, row)
            for x, row in zip(xs.tolist(), counts)
        ]

    for block, agree in scan(secrets, (p, counts_closedform_all), profiles, check):
        for prof in block:
            yield prof, agree


def _cmd_analyze(args) -> tuple[dict, list[dict], dict, int]:
    p = BarrettParams.create(args.q, args.s)
    secrets, secret_mode = _secret_scope(
        args.q, args.seed, EXHAUSTIVE_SECRET_LIMIT,
        explicit=args.secret, every=args.all_secrets, sample=args.sample,
    )
    floor = floor_bits(p.q)
    rows = []
    passed = True
    for prof, _ in _profile_pass(p, secrets):
        # Off mask mass leaves no distribution to measure; a value hit
        # three times keeps its min-entropy, which then reads below the
        # floor.  Either way the profile is not conserved and fails the run.
        measured = prof.overflow != 0 or prof.conserved
        passed = passed and prof.conserved
        rows.append(
            {
                "secret": prof.secret,
                "zeros": prof.zeros,
                "ones": prof.ones,
                "twos": prof.twos,
                "max_count": prof.max_count,
                "support": prof.support_size,
                "gap_observed": prof.zeros,
                "gap_paper": support_gap_predicted_paper(p, prof.secret),
                "gap_extended": support_gap_predicted_extended(p, prof.secret),
                "min_entropy_bits": min_entropy(prof) if measured else None,
                "floor_bits": floor if measured else None,
            }
        )
    params = _scope_params(args, p, secrets, secret_mode)
    summary = {"passed": passed, "secrets_checked": len(rows), "route": "closedform"}
    return params, rows, summary, 0 if passed else 1


def _cmd_trichotomy(args) -> tuple[dict, list[dict], dict, int]:
    p = BarrettParams.create(args.q, args.s)
    secrets, secret_mode = _secret_scope(
        args.q, args.seed, EXHAUSTIVE_SECRET_LIMIT,
        every=args.exhaustive, sample=args.sample,
    )
    rep = trichotomy_check(p, secrets=secrets, oracle=args.oracle)
    rows = [asdict(rep)]
    params = _scope_params(args, p, secrets, secret_mode)
    summary = {"passed": rep.passed, "secrets_checked": rep.secrets_checked}
    return params, rows, summary, 0 if rep.passed else 1


def _cmd_equiv(args) -> tuple[dict, list[dict], dict, int]:
    p = BarrettParams.create(args.q, args.s)
    sample = args.sample
    if sample is None and not args.exhaustive and args.q > EQUIV_EXHAUSTIVE_LIMIT:
        sample = EQUIV_SAMPLE_PAIRS
    rep = equivalence_check(p, sample=sample, seed=args.seed)
    rows = [asdict(rep)]
    params = {
        "q": args.q,
        "s": args.s,
        "r": p.r,
        "sample": sample if sample is not None else "-",
        "seed": args.seed,
    }
    summary = {"passed": rep.passed, "pairs_checked": rep.pairs_checked}
    return params, rows, summary, 0 if rep.passed else 1


def _cmd_entropy(args) -> tuple[dict, list[dict], dict, int]:
    if args.preset is not None:
        if args.q is not None or args.s is not None:
            raise ValueError("--preset and --q/--s are mutually exclusive")
        preset = get_preset(args.preset)
        name, p = preset.name, preset.params()
    else:
        if args.q is None or args.s is None:
            raise ValueError("entropy needs either --preset or both --q and --s")
        name, p = "custom", BarrettParams.create(args.q, args.s)
    rows = [{"name": name, **row} for row in barrier_table([p])]
    params = {"q": p.q, "s": p.s, "preset": args.preset or "-"}
    summary = {"passed": True}
    return params, rows, summary, 0


def _cmd_witness(args) -> tuple[dict, list[dict], dict, int]:
    p = BarrettParams.create(args.q, args.s)
    rep = tightness_witness_search(p)
    rows = [asdict(rep)]
    # verified is the exit code, not a column.  Absence is valid data
    # (r = 0 means the map is a bijection), so only masks that fail their
    # re-evaluation fail the run.
    del rows[0]["verified"]
    params = {"q": args.q, "s": args.s, "r": p.r}
    summary = {"passed": rep.verified, "found": rep.found}
    return params, rows, summary, 0 if rep.verified else 1


def _cmd_compose(args) -> tuple[dict, list[dict], dict, int]:
    names = args.stages.split(",")
    if len(names) != 2 or any(n not in STAGE_NAMES for n in names):
        raise ValueError(
            f"--stages must be two comma-separated names from {STAGE_NAMES}, "
            f"got {args.stages!r}"
        )
    if "barrett" in names and args.s is None:
        raise ValueError("--s is required when a barrett stage is present")
    barrett_p = BarrettParams.create(args.q, args.s) if "barrett" in names else None

    def build(name: str):
        if name == "barrett":
            return make_barrett_gadget(barrett_p)
        return make_identity_gadget(args.q)

    spec = PipelineSpec(build(names[0]), build(names[1]), args.mode)
    secrets, secret_mode = _secret_scope(args.q, args.seed, PIPELINE_EXHAUSTIVE_LIMIT)
    rep = compose(spec, secrets)
    rows = [asdict(rep)]
    # Only the fresh-composition bound is a claim; shared results are data.
    passed = rep.fresh_bound_holds if args.mode == "fresh" else True
    params = {
        "q": args.q,
        "s": args.s if args.s is not None else "-",
        "stages": args.stages,
        "mode": args.mode,
        "sample": len(secrets) if secret_mode == "sampled" else "-",
        "seed": args.seed,
    }
    summary = {"passed": passed, "pipeline_max_mult": rep.pipeline_max_mult}
    return params, rows, summary, 0 if passed else 1


def _ceil_log2(q: int) -> int:
    return (q - 1).bit_length()


def _load_sweep_config(path: str) -> list[BarrettParams]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    unknown = set(doc) - {"cases"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cases = doc.get("cases")
    if not isinstance(cases, list):
        raise ValueError("config key 'cases' must be a list")
    out = []
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            raise ValueError(f"case {i} must be an object")
        unknown = set(case) - {"q", "s"}
        if unknown:
            raise ValueError(f"case {i} has unknown keys: {sorted(unknown)}")
        q = case.get("q")
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise ValueError(f"case {i}: q must be a positive integer")
        s = case.get("s", 2 * _ceil_log2(q))
        if not isinstance(s, int) or isinstance(s, bool) or s < 0:
            raise ValueError(f"case {i}: s must be a non-negative integer")
        out.append((q, s))
    return [BarrettParams.create(q, s) for q, s in out]


def _sweep_row(**values) -> dict:
    return {col: values.get(col) for col in _SWEEP_COLUMNS}


def _sweep_case(p: BarrettParams, secrets: Sequence[int], secret_mode: str) -> list[dict]:
    """One case's rows: the case row, then its mismatch rows."""
    q, s = p.q, p.s
    # Sampled secrets are also enumerated, to cross-check the closed form.
    check = (make_barrett_gadget(p), counts_bruteforce_all) if secret_mode == "sampled" else None
    # The case row is the tally: its flags and counts are updated as checks run.
    case_row = _sweep_row(
        row="case", q=q, s=s, r=p.r, secret_mode=secret_mode,
        secrets_checked=len(secrets), conservation_ok=True, routes_agree=True,
        equiv="skipped", max_count=0, paper_gap_mismatches=0, extended_gap_mismatches=0,
    )
    rows = [case_row]
    for prof, agree in _profile_pass(p, secrets, check):
        case_row["max_count"] = max(case_row["max_count"], prof.max_count)
        case_row["conservation_ok"] = case_row["conservation_ok"] and prof.conserved
        case_row["routes_agree"] = case_row["routes_agree"] and agree
        for formula, predicted in (
            ("paper", support_gap_predicted_paper(p, prof.secret)),
            ("extended", support_gap_predicted_extended(p, prof.secret)),
        ):
            if predicted == prof.zeros:
                continue
            case_row[f"{formula}_gap_mismatches"] += 1
            if case_row[f"{formula}_gap_mismatches"] <= MISMATCH_ROW_CAP:
                rows.append(
                    _sweep_row(
                        row="mismatch", q=q, s=s, r=p.r, formula=formula,
                        secret=prof.secret, observed=prof.zeros, predicted=predicted,
                    )
                )

    case_row["trichotomy_ok"] = case_row["max_count"] <= 2
    if q <= SWEEP_EQUIV_LIMIT and p.scope_ok():
        case_row["equiv"] = "ok" if equivalence_check(p).passed else "fail"
    return rows


def _cmd_sweep(args) -> tuple[dict, list[dict], dict, int]:
    cases = _load_sweep_config(args.config)
    # Every case's ring and scope are fixed before the first case is counted.
    scoped = [(p, *_secret_scope(p.q, args.seed, SWEEP_EXHAUSTIVE_LIMIT)) for p in cases]
    rows = [row for case in scoped for row in _sweep_case(*case)]
    # The summary is read back from the case rows, so it cannot disagree with them.
    case_rows = [row for row in rows if row["row"] == "case"]
    hard_failures = sum(
        not (row["trichotomy_ok"] and row["conservation_ok"] and row["routes_agree"])
        or row["equiv"] == "fail"
        for row in case_rows
    )
    summary = {
        "passed": hard_failures == 0,
        "hard_failures": hard_failures,
        "paper_gap_mismatches": sum(row["paper_gap_mismatches"] for row in case_rows),
        "extended_gap_mismatches": sum(row["extended_gap_mismatches"] for row in case_rows),
    }
    code = 0 if summary["passed"] else 1
    # Gap-formula disagreement with the oracle is reported data by default;
    # --strict-formula promotes any mismatch (either formula) to a failure.
    if args.strict_formula and any(row["row"] == "mismatch" for row in rows):
        code = 1
    params = {
        "config": args.config,
        "cases": len(cases),
        "sample": SWEEP_SAMPLE_SECRETS,
        "seed": args.seed,
        "strict_formula": args.strict_formula,
    }
    return params, rows, summary, code


_HANDLERS = {
    "analyze": _cmd_analyze,
    "trichotomy": _cmd_trichotomy,
    "equiv": _cmd_equiv,
    "entropy": _cmd_entropy,
    "witness": _cmd_witness,
    "compose": _cmd_compose,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        params, rows, summary, code = _HANDLERS[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        # ScopeConditionError and JSONDecodeError are ValueErrors; numpy overflows past int64.
        print(f"maskwire: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A q too large for this machine is an input problem, not a finding.
        detail = str(exc) or "allocation failed"
        print(f"maskwire: error: out of memory ({detail})", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    env = ReportEnvelope(
        command=args.command,
        parameters=params,
        rows=rows,
        summary=summary,
        elapsed_ms=elapsed_ms,
    )
    out, err = render(env, args.format)
    sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
