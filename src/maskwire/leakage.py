"""Min-entropy accounting for the masked wire distribution, in plain floats.

For a uniform mask the wire value lands on v with probability
count(v)/q, so a secret's min-entropy is log2(q) - log2(max count):
min_entropy is per secret, and a block's profile gives one float per
secret, each from math.log2 as for a single secret.  A two-way collision
costs exactly one bit against the ideal log2(q), and the trichotomy
bound turns that into a floor: floor_bits(q) = log2(q) - 1 is the worst
case over all secrets.  Leakage averaged over a uniform secret is not
computed yet (ROADMAP item 6).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .preimage import MultiplicityProfile

# Worst admissible per-wire loss in bits once the preimage size is capped at 2.
MAX_LEAKAGE_BITS = 1.0


def min_entropy(profile: MultiplicityProfile) -> Union[Optional[float], list]:
    """Exact min-entropy of a secret's wire in bits: log2(q) - log2(max count).

    A float for a profile of one secret, a list of them for a block.  A
    max count below 1 hits no value, so there is no distribution to
    measure: None.
    """
    log_q = math.log2(profile.q)
    bits = [
        log_q - math.log2(top) if top >= 1 else None
        for top in np.ravel(profile.max_count).tolist()
    ]
    return bits if np.ndim(profile.max_count) else bits[0]


def floor_bits(q: int) -> float:
    """Worst-case min-entropy over all secrets while counts stay in {0, 1, 2}."""
    return math.log2(q) - MAX_LEAKAGE_BITS
