"""Correctness checks on the output of every command in a benchmark pass.

Each command's exit code, ``rows`` and ``summary`` (its JSON report
without ``elapsed_ms`` and ``parameters``) are hashed and compared with
digests recorded from maskwire 0.1.0 at the default seed.  A workload
whose commands take no seed prints the same rows for every seed, so its
digests apply to every seed.  Every command, at every seed, must also
show the invariants its report carries: exit 0, ``passed``,
``trichotomy_ok``, ``conservation_ok`` and ``routes_agree`` true, and
``equiv`` not ``fail``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Optional, Sequence

from workloads import Workload

DEFAULT_SEED = 0
ROW_FLAGS = ("passed", "trichotomy_ok", "conservation_ok", "routes_agree")

# digest() of each command, in workload order, at seed 0.
DIGESTS = {
    "mlkem-cli": (
        "4552fa8e2a11e69fa94853ff6971eb593c1b1381739821af09550caba006005e",
        "c7dc2836f1748c6a34a5d498a54b059ae80669b11fc11c250cb2f6c6b927fc25",
        "d018747011b4d649548ed5426f7569f09854151e6a5724a8f26e928a159fd2fa",
        "040217cfe5121faed77b3b695780329e22e86806003edad7bec064c09ff7f835",
        "85a04f9668ff20cc1d143403868e2db3d856d152bc2a7a416a67f2508a74e434",
        "1d1241e9db80a7fe0f01a2bf92799563cc1aea1bf5249d910ef06da98a03bf8f",
        "562da4a9774a0fa1ef12a7d3d0a3d5a1b67536ceaa8a18509e324fc36a3441a5",
        "aaec6c8c61435316c672f45f188f4bece5be070acc4300fc18fe55242165dc18",
    ),
    "ntt-sweep": ("3fa90415489f95f42dbeb176603c42f641e4045c7defaebd23b969bdb18fabb1",),
    "mldsa-sampled": (
        "86dcf360c3b41fa7b3dba30c436516040bf3cdb2ae429a5ec613dca5008f5c73",
        "775fb964b1953af17791d67abf649dbe06279dba0924ea0375c87ca2317fcd06",
    ),
}


def digest(code: Optional[int], doc: dict) -> str:
    payload = {"exit": code, "rows": doc["rows"], "summary": doc["summary"]}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_problems(code: Optional[int], doc: dict) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if doc["summary"].get("passed") is not True:
        problems.append("summary.passed is not true")
    for i, row in enumerate(doc["rows"]):
        for flag in ROW_FLAGS:
            # Sweep mismatch rows leave the case flags empty (null).
            if row.get(flag) not in (None, True):
                problems.append(f"row {i}: {flag} = {row[flag]!r}")
        if row.get("equiv") == "fail":
            problems.append(f"row {i}: equiv = 'fail'")
    return problems


def command_problems(
    workload: Workload, index: int, seed: int, code: Optional[int], stdout: str
) -> list[str]:
    """Everything wrong with one command's output; empty when it is correct."""
    try:
        doc = json.loads(stdout)
        problems = invariant_problems(code, doc)
        if seed == DEFAULT_SEED or not workload.sampled:
            if digest(code, doc) != DIGESTS[workload.name][index]:
                problems.append("rows or summary differ from the recorded digest")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems = [f"malformed report: {type(exc).__name__}: {exc}"]
    return problems


def count_failures(
    workload: Workload, seed: int, outputs: Sequence[tuple[Optional[int], str]]
) -> int:
    """Commands of one pass whose output check fails; each is logged to stderr."""
    failed = 0
    for index, (code, stdout) in enumerate(outputs):
        problems = command_problems(workload, index, seed, code, stdout)
        if problems:
            failed += 1
            argv = " ".join(workload.commands[index].args(seed))
            print(f"check failed: {argv}: {'; '.join(problems)}", file=sys.stderr)
    return failed
