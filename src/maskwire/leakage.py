"""Min-entropy accounting for the masked wire distribution, in plain floats.

For a uniform mask the wire value lands on v with probability
count(v)/q, so a secret's min-entropy is log2(q) - log2(max count):
min_entropy is per secret.  A two-way collision costs exactly one bit
against the ideal log2(q), and the trichotomy bound turns that into a
floor: floor_bits(q) = log2(q) - 1 is the worst case over all secrets.
Leakage averaged over a uniform secret is not computed yet (ROADMAP
item 6).
"""

from __future__ import annotations

import math

from .preimage import MultiplicityProfile

# Worst admissible per-wire loss in bits once the preimage size is capped at 2.
MAX_LEAKAGE_BITS = 1.0


def min_entropy(profile: MultiplicityProfile) -> float:
    """Exact min-entropy of one secret's wire in bits: log2(q) - log2(max count)."""
    return math.log2(profile.q) - math.log2(profile.max_count)


def floor_bits(q: int) -> float:
    """Worst-case min-entropy over all secrets while counts stay in {0, 1, 2}."""
    return math.log2(q) - MAX_LEAKAGE_BITS

