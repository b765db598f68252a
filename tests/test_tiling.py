"""The tiled mask/value scans: tile boundaries and the memory bound.

The scans in preimage walk the mask (or value) axis in tiles of
preimage.TILE elements.  Patching TILE down to 2..9 puts many tile
boundaries inside rings of q <= 300, where the scalar reference in
tests/reference.py can check every count.  The memory test runs at the
real TILE and reads numpy's allocations from tracemalloc.
"""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import maskwire.preimage as preimage
from maskwire.gadgets import (
    BarrettParams,
    barrett_nat_eval_vec,
    make_barrett_gadget,
    make_identity_gadget,
)
from maskwire.modring import ZqElem
from maskwire.pipeline import PipelineSpec, _composed_counts_shared
from maskwire.preimage import (
    counts_bruteforce_all,
    counts_closedform_all,
    equivalence_check,
)

from reference import ceil_log2, ref_counts


@st.composite
def tiled_case(draw):
    """(tile, q, s, x) with tile in 2..9, q <= 300 and s >= ceil_log2(q)."""
    tile = draw(st.integers(2, 9))
    q = draw(st.integers(1, 300))
    s = draw(st.integers(ceil_log2(q), 70))
    x = draw(st.integers(0, q - 1))
    return tile, q, s, x


STAGES = st.sampled_from(["barrett", "identity"])


@contextmanager
def tiles_of(tile):
    with mock.patch.object(preimage, "TILE", tile):
        yield


@settings(max_examples=150, deadline=None)
@given(tiled_case())
def test_tiled_counts_match_scalar_enumeration(case):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)
    want = ref_counts(q, s, x)
    with tiles_of(tile):
        closed = counts_closedform_all(p, x)
        oracle = counts_bruteforce_all(make_barrett_gadget(p), x)
    assert closed.dtype == np.int8 and closed.tolist() == want
    assert oracle.dtype == np.int64 and oracle.tolist() == want


@settings(max_examples=60, deadline=None)
@given(tiled_case())
def test_tiled_exhaustive_equivalence_passes(case):
    tile, q, s, _ = case
    with tiles_of(tile):
        rep = equivalence_check(BarrettParams.create(q, s))
    assert rep.passed and rep.pairs_checked == q * q and rep.first_mismatch is None


def faulty_hw(q, bad):
    """The hardware-faithful evaluator, off by one on the flat pairs x*q + m in bad."""

    def evaluate(p, x, m):
        out = barrett_nat_eval_vec(p, x, m)
        hit = np.isin(np.asarray(x) * q + m, bad)
        out[hit] += 1
        return out

    return evaluate


@settings(max_examples=100, deadline=None)
@given(tiled_case(), st.data())
def test_tiled_equivalence_reports_first_mismatch(case, data):
    tile, q, s, _ = case
    p = BarrettParams.create(q, s)
    bad = data.draw(st.lists(st.integers(0, q * q - 1), min_size=1, max_size=4))
    evaluate = faulty_hw(q, np.array(bad, dtype=np.int64))
    with tiles_of(tile), mock.patch.object(preimage, "barrett_nat_eval_vec", evaluate):
        exhaustive = equivalence_check(p)
        sampled = equivalence_check(p, sample=3 * q, seed=q)

    first = min(bad)
    x, m = divmod(first, q)
    hw = barrett_nat_eval_vec(p, x, np.array([m]))[0]
    assert not exhaustive.passed
    assert exhaustive.pairs_checked == first + 1
    assert exhaustive.first_mismatch[:2] == (x, m)
    assert exhaustive.first_mismatch[3] == hw + 1

    # The sampled path draws each tile's secrets, then its masks, from
    # one seeded numpy generator.
    rng = np.random.default_rng(q)
    draws = [
        rng.integers(0, q, size=(2, min(tile, 3 * q - lo)))
        for lo in range(0, 3 * q, tile)
    ]
    xs, ms = np.concatenate(draws, axis=1).tolist()
    hits = [i for i, (a, b) in enumerate(zip(xs, ms)) if a * q + b in bad]
    if hits:
        i = hits[0]
        assert not sampled.passed
        assert sampled.pairs_checked == i + 1
        assert sampled.first_mismatch[:2] == (xs[i], ms[i])
    else:
        assert sampled.passed and sampled.pairs_checked == 3 * q


@settings(max_examples=100, deadline=None)
@given(tiled_case(), STAGES, STAGES)
def test_tiled_shared_composition_matches_scalar_loop(case, first, second):
    tile, q, s, x = case
    p = BarrettParams.create(q, s)

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    spec = PipelineSpec(build(first), build(second), "shared")
    want = [0] * q
    xe = ZqElem(x, p.q)
    for m in range(q):
        me = ZqElem(m, p.q)
        want[spec.stage2.eval(spec.stage1.eval(xe, me), me).val] += 1
    with tiles_of(tile):
        got = _composed_counts_shared(spec, x)
    assert got.tolist() == want


def traced_peak(fn, *args):
    """Peak bytes traced while fn runs, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_scan_memory_is_one_result_array():
    # An untiled scan holds several q-length int64 temporaries at once.
    q, s = 2**20 - 3, 40
    p = BarrettParams.create(q, s)
    x = q // 3
    closed, closed_peak = traced_peak(counts_closedform_all, p, x)
    oracle, oracle_peak = traced_peak(counts_bruteforce_all, make_barrett_gadget(p), x)
    assert closed_peak < 2 * q
    assert oracle_peak < 9 * q
    assert np.array_equal(closed, oracle)


def test_sampled_equivalence_memory_does_not_grow_with_sample():
    # Pairs are drawn one tile at a time, so a million pairs hold no
    # million-element coordinate arrays.
    p = BarrettParams.create(40961, 32)
    rep, peak = traced_peak(equivalence_check, p, 10**6)
    assert rep.passed and rep.pairs_checked == 10**6
    assert peak < 4 * 2**20
