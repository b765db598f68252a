"""Min-entropy bookkeeping on top of multiplicity profiles."""

import math
from fractions import Fraction

from maskwire.gadgets import BarrettParams
from maskwire.leakage import (
    MAX_LEAKAGE_BITS,
    barrier_table,
    max_output_probability,
    min_entropy,
)
from maskwire.preimage import MultiplicityProfile, counts_closedform_all

MLKEM = BarrettParams.create(3329, 24)


def _profile(p, x):
    return MultiplicityProfile.from_counts(x, p.q, counts_closedform_all(p, x))


def test_max_probability_exact():
    assert max_output_probability(_profile(MLKEM, 100)) == Fraction(2, 3329)
    assert max_output_probability(_profile(MLKEM, 3328)) == Fraction(1, 3329)


def test_min_entropy_collision_secret():
    bound = min_entropy(_profile(MLKEM, 100))
    assert bound.q == 3329
    assert bound.max_prob == Fraction(2, 3329)
    assert math.isclose(bound.exact_min_entropy_bits, math.log2(3329) - 1.0)
    assert math.isclose(bound.barrier_floor_bits, math.log2(3329) - 1.0)
    assert bound.slack_bits == 0.0


def test_min_entropy_bijective_secret():
    bound = min_entropy(_profile(MLKEM, 3328))
    assert math.isclose(bound.exact_min_entropy_bits, math.log2(3329))
    assert math.isclose(bound.slack_bits, 1.0)


def test_min_entropy_degenerate_offset():
    # r = 0: every secret keeps the full log2(q) bits.
    p = BarrettParams.create(16, 4)
    for x in range(16):
        bound = min_entropy(_profile(p, x))
        assert bound.exact_min_entropy_bits == 4.0
        assert math.isclose(bound.slack_bits, 1.0)


def test_floor_never_undercut():
    # Exact min-entropy never dips below log2(q) - 1, whatever the secret.
    for q, s in [(7, 3), (61, 6), (64, 6), (3329, 24)]:
        p = BarrettParams.create(q, s)
        for x in range(q):
            bound = min_entropy(_profile(p, x))
            assert bound.exact_min_entropy_bits >= bound.barrier_floor_bits - 1e-12
            assert bound.slack_bits in (0.0, 1.0)


def test_barrier_table_values():
    rows = barrier_table([MLKEM, BarrettParams.create(8380417, 48)])
    assert [r["q"] for r in rows] == [3329, 8380417]
    assert math.isclose(rows[0]["log2_q"], 11.7009, abs_tol=1e-4)
    assert math.isclose(rows[0]["floor_bits"], 10.7009, abs_tol=1e-4)
    assert math.isclose(rows[1]["log2_q"], 22.9986, abs_tol=1e-4)
    assert math.isclose(rows[1]["floor_bits"], 21.9986, abs_tol=1e-4)
    assert all(r["max_leakage_bits"] == MAX_LEAKAGE_BITS == 1.0 for r in rows)


def test_barrier_table_smallest_ring():
    (row,) = barrier_table([BarrettParams.create(2, 1)])
    assert row["log2_q"] == 1.0
    assert row["floor_bits"] == 0.0
