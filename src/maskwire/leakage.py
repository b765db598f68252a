"""Min-entropy accounting for the masked wire distribution.

For a uniform mask the wire value lands on v with probability
count(v)/q, so the min-entropy of the wire is log2(q) - log2(max count).
A two-way collision therefore costs exactly one bit against the ideal
log2(q), and the trichotomy bound turns that into a floor: the wire
never reveals more than one bit of the secret's ideal entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gadgets import BarrettParams
from .preimage import MultiplicityProfile

# Worst admissible per-wire loss in bits once the preimage size is capped at 2.
MAX_LEAKAGE_BITS = 1.0


@dataclass(frozen=True)
class EntropyBound:
    """Exact min-entropy of one wire next to its guaranteed floor."""

    q: int
    max_prob: Fraction
    exact_min_entropy_bits: float
    barrier_floor_bits: float
    slack_bits: float


def max_output_probability(profile: MultiplicityProfile) -> Fraction:
    """Largest point mass of the wire distribution, exact."""
    return Fraction(profile.max_count, profile.q)


def min_entropy(profile: MultiplicityProfile) -> EntropyBound:
    """Exact min-entropy in bits, with the floor log2(q) - 1 and the slack.

    Slack is 1.0 for a collision-free secret (bijective fiber) and 0.0
    when some value is hit twice; fractional values are impossible while
    preimage sizes stay in {0, 1, 2}.
    """
    q = profile.q
    exact = math.log2(q) - math.log2(profile.max_count)
    floor = math.log2(q) - MAX_LEAKAGE_BITS
    return EntropyBound(
        q=q,
        max_prob=max_output_probability(profile),
        exact_min_entropy_bits=exact,
        barrier_floor_bits=floor,
        slack_bits=exact - floor,
    )


def barrier_table(params_list: Sequence[BarrettParams]) -> list[dict]:
    """Per-parameter-set floor summary rows for reporting."""
    rows = []
    for p in params_list:
        rows.append(
            {
                "q": p.q,
                "s": p.s,
                "log2_q": math.log2(p.q),
                "floor_bits": math.log2(p.q) - MAX_LEAKAGE_BITS,
                "max_leakage_bits": MAX_LEAKAGE_BITS,
            }
        )
    return rows
