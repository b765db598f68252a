"""Min-entropy bookkeeping on top of multiplicity profiles, in plain floats."""

import math

from maskwire.gadgets import BarrettParams
from maskwire.leakage import MAX_LEAKAGE_BITS, barrier_table, floor_bits, min_entropy
from maskwire.preimage import MultiplicityProfile, counts_closedform_all

MLKEM = BarrettParams.create(3329, 24)


def _profile(p, x):
    return MultiplicityProfile.from_counts(x, p.q, counts_closedform_all(p, x))


def test_min_entropy_collision_secret():
    bits = min_entropy(_profile(MLKEM, 100))
    assert type(bits) is float
    assert bits == math.log2(3329) - math.log2(2) == math.log2(3329) - 1.0


def test_min_entropy_bijective_secret():
    assert min_entropy(_profile(MLKEM, 3328)) == math.log2(3329)


def test_min_entropy_degenerate_offset():
    # r = 0: every secret keeps the full log2(q) bits.
    p = BarrettParams.create(16, 4)
    assert [min_entropy(_profile(p, x)) for x in range(16)] == [4.0] * 16


def test_floor_bits_is_one_bit_below_log2_q():
    assert type(floor_bits(3329)) is float
    assert floor_bits(3329) == math.log2(3329) - MAX_LEAKAGE_BITS
    assert floor_bits(16) == 3.0
    assert floor_bits(2) == 0.0


def test_floor_never_undercut():
    # Exact min-entropy sits on the floor or one bit above it, whatever the secret.
    for q, s in [(7, 3), (61, 6), (64, 6), (3329, 24)]:
        p = BarrettParams.create(q, s)
        floor = floor_bits(q)
        for x in range(q):
            assert min_entropy(_profile(p, x)) - floor in (0.0, 1.0)


def test_barrier_table_values():
    rows = barrier_table([MLKEM, BarrettParams.create(8380417, 48)])
    assert [r["q"] for r in rows] == [3329, 8380417]
    assert math.isclose(rows[0]["log2_q"], 11.7009, abs_tol=1e-4)
    assert math.isclose(rows[0]["floor_bits"], 10.7009, abs_tol=1e-4)
    assert math.isclose(rows[1]["log2_q"], 22.9986, abs_tol=1e-4)
    assert math.isclose(rows[1]["floor_bits"], 21.9986, abs_tol=1e-4)
    assert [r["floor_bits"] for r in rows] == [floor_bits(3329), floor_bits(8380417)]
    assert all(r["max_leakage_bits"] == MAX_LEAKAGE_BITS == 1.0 for r in rows)


def test_barrier_table_smallest_ring():
    (row,) = barrier_table([BarrettParams.create(2, 1)])
    assert row["log2_q"] == 1.0
    assert row["floor_bits"] == 0.0
