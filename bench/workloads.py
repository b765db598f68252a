"""The benchmark's workloads: fixed lists of maskwire CLI invocations.

One pass of a workload runs its commands in order.  Every command gets
``--format json --threads 1``; only commands that sample secrets get
``--seed <workload seed>``, so a workload without sampled commands runs
the same argv, and prints the same rows, for every seed.

One thread, because on a shared 2-vCPU host a pass at ``--threads 2``
needs both vCPUs and its time follows the other tenants' load: ntt-sweep
passes ranged from 12.3 s to 16.2 s with up to 21% CPU steal, against
9.6 s to 10.1 s at one thread.  The thread pool never runs, so its
hand-off cost is not measured.

The (secret, mask) pair count of a pass is worked out here from the
definition and never read back from the program: secrets x q for each
counting route run, plus q^2 for each exhaustive equivalence scan.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMON_ARGS = ("--format", "json", "--threads", "1")
# Sweep configs and span files are written here, relative to the checkout root.
OUTPUT_DIR = ".bench_out"
INT64_BYTES = 8


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    q: int  # largest modulus the command works at
    count_pairs: int  # secrets x q, summed over the counting routes run
    equiv_pairs: int = 0  # q^2 per exhaustive equivalence scan
    sampled: bool = False  # takes --seed, so its secrets depend on the seed
    sweep_cases: tuple[tuple[int, int], ...] = ()  # (q, s) config of a sweep

    def args(self, seed: int) -> list[str]:
        extra = ["--seed", str(seed)] if self.sampled else []
        return [*self.argv, *COMMON_ARGS, *extra]

    @property
    def pairs(self) -> int:
        return self.count_pairs + self.equiv_pairs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]

    @property
    def pairs(self) -> int:
        return sum(c.pairs for c in self.commands)

    @property
    def equiv_pairs(self) -> int:
        return sum(c.equiv_pairs for c in self.commands)

    @property
    def sampled(self) -> bool:
        return any(c.sampled for c in self.commands)

    @property
    def largest_array_bytes(self) -> int:
        """Size of one length-q int64 counts array at the largest q."""
        return INT64_BYTES * max(c.q for c in self.commands)


def _sweep(name: str, cases: tuple[tuple[int, int], ...], **fields) -> Command:
    return Command(
        argv=("sweep", "--config", f"{OUTPUT_DIR}/{name}.sweep.json"),
        q=max(q for q, _ in cases),
        sweep_cases=cases,
        **fields,
    )


MLKEM_Q, MLKEM_S = 3329, 24
_KEM = ("--q", str(MLKEM_Q), "--s", str(MLKEM_S))
_KEM_ALL = MLKEM_Q * MLKEM_Q  # every secret, one counting route

MLKEM_CLI = Workload(
    name="mlkem-cli",
    why=(
        "3,329 secrets with 26 KB arrays that stay in cache: per-secret Python "
        "overhead, object churn, min-entropy and rendering dominate"
    ),
    commands=(
        Command(("analyze", *_KEM, "--all-secrets"), MLKEM_Q, _KEM_ALL),
        Command(("trichotomy", *_KEM, "--exhaustive"), MLKEM_Q, _KEM_ALL),
        Command(("trichotomy", *_KEM, "--exhaustive", "--oracle"), MLKEM_Q, _KEM_ALL),
        Command(("equiv", *_KEM, "--exhaustive"), MLKEM_Q, 0, equiv_pairs=_KEM_ALL),
        # r = 2^24 mod 3329 = 2385 != 0, so secret 0 already has a
        # two-preimage value and the search stops after one secret.
        Command(("witness", *_KEM), MLKEM_Q, MLKEM_Q),
        # q <= 2^12, so compose takes every secret and enumerates two
        # wires per secret in both modes.
        Command(
            ("compose", *_KEM, "--stages", "identity,barrett", "--mode", "fresh"),
            MLKEM_Q,
            2 * _KEM_ALL,
        ),
        Command(
            ("compose", *_KEM, "--stages", "barrett,barrett", "--mode", "shared"),
            MLKEM_Q,
            2 * _KEM_ALL,
        ),
        Command(("entropy", "--preset", "mlkem"), MLKEM_Q, 0),
    ),
)

# The acceptance sweep.  Every case has q <= 2^14 (all secrets, closed
# form) and q <= min(2^16, 2^s) (exhaustive equivalence scan).
NTT_CASES = ((3329, 24), (7681, 26), (4591, 25), (12289, 28), (7, 3))
_NTT_ALL = sum(q * q for q, _ in NTT_CASES)

NTT_SWEEP = Workload(
    name="ntt-sweep",
    why=(
        "exhaustive equivalence scan pushes 242,176,853 pairs through both "
        "gadget evaluators, next to exhaustive closed-form counting on L2-sized arrays"
    ),
    commands=(_sweep("ntt-sweep", NTT_CASES, count_pairs=_NTT_ALL, equiv_pairs=_NTT_ALL),),
)

MLDSA_Q, MLDSA_S = 8380417, 48
MLDSA_SECRETS = 16  # default sample of analyze and of sampled sweep cases

MLDSA_SAMPLED = Workload(
    name="mldsa-sampled",
    why=(
        "16 sampled secrets with 67 MB arrays: memory traffic and peak RSS dominate; "
        "no equivalence scan and trivial rendering"
    ),
    commands=(
        Command(
            ("analyze", "--q", str(MLDSA_Q), "--s", str(MLDSA_S)),
            MLDSA_Q,
            MLDSA_SECRETS * MLDSA_Q,
            sampled=True,
        ),
        # q > 2^14: 16 sampled secrets, each enumerated and cross-checked
        # against the closed form; q > 2^16 skips equivalence.
        _sweep(
            "mldsa-sampled",
            ((MLDSA_Q, MLDSA_S),),
            count_pairs=2 * MLDSA_SECRETS * MLDSA_Q,
            sampled=True,
        ),
    ),
)

WORKLOADS = {w.name: w for w in (MLKEM_CLI, NTT_SWEEP, MLDSA_SAMPLED)}
