"""Min-entropy bookkeeping on top of multiplicity profiles, in plain floats."""

import json
import math

import numpy as np

from maskwire.cli import main
from maskwire.gadgets import BarrettParams
from maskwire.leakage import MAX_LEAKAGE_BITS, floor_bits, min_entropy
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


def test_min_entropy_of_a_block_is_each_secret_s():
    # One float a secret, each the scalar form's bytes; a row that hits no
    # value has no distribution and reads None.
    for p in (MLKEM, BarrettParams.create(16, 4), BarrettParams.create(61, 6)):
        xs = np.arange(min(p.q, 19))
        block = MultiplicityProfile.from_counts(xs, p.q, counts_closedform_all(p, xs))
        bits = min_entropy(block)
        assert bits == [min_entropy(_profile(p, x)) for x in xs.tolist()]
        assert all(type(b) is float for b in bits)
    counts = np.ones((2, 7), dtype=np.uint8)
    counts[1] = 0
    assert min_entropy(MultiplicityProfile.from_counts(np.arange(2), 7, counts)) == [
        math.log2(7), None
    ]
    assert min_entropy(MultiplicityProfile.from_counts(1, 7, counts[1])) is None


def _barrier_row(capsys, *argv):
    # The barrier row is the one row `entropy` builds for a (q, s) pair.
    assert main(["entropy", *argv, "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    return row


def test_barrier_table_values(capsys):
    rows = [_barrier_row(capsys, "--preset", name) for name in ("mlkem", "mldsa")]
    assert [r["q"] for r in rows] == [3329, 8380417]
    assert math.isclose(rows[0]["log2_q"], 11.7009, abs_tol=1e-4)
    assert math.isclose(rows[0]["floor_bits"], 10.7009, abs_tol=1e-4)
    assert math.isclose(rows[1]["log2_q"], 22.9986, abs_tol=1e-4)
    assert math.isclose(rows[1]["floor_bits"], 21.9986, abs_tol=1e-4)
    assert [r["floor_bits"] for r in rows] == [floor_bits(3329), floor_bits(8380417)]
    assert all(r["max_leakage_bits"] == MAX_LEAKAGE_BITS == 1.0 for r in rows)


def test_barrier_table_smallest_ring(capsys):
    row = _barrier_row(capsys, "--q", "2", "--s", "1")
    assert row["log2_q"] == 1.0
    assert row["floor_bits"] == 0.0


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

