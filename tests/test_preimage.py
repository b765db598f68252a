"""Counting routes, profiles, gap predictors, witness, and equivalence."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskwire.cli import _secret_scope
from maskwire.gadgets import BarrettParams, ScopeConditionError, make_barrett_gadget
from maskwire.preimage import (
    BLOCK_BYTES,
    MultiplicityProfile,
    count_closedform,
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

from reference import ref_counts, ref_wire

MLKEM = BarrettParams.create(3329, 24)


def test_count_closedform_examples():
    assert count_closedform(MLKEM, 100, 0) == 2
    assert count_closedform(MLKEM, 3328, 17) == 1
    p7 = BarrettParams.create(7, 3)
    assert count_closedform(p7, 3, 4) == 0
    assert count_closedform(p7, 0, 0) == 2


def test_count_bruteforce_examples():
    g = make_barrett_gadget(MLKEM)
    assert counts_bruteforce_all(g, 100)[0] == 2
    assert counts_bruteforce_all(g, 3328)[17] == 1


def test_count_degenerate_offset():
    p = BarrettParams.create(16, 4)  # r = 0, bijection
    g = make_barrett_gadget(p)
    for x in range(16):
        assert list(counts_bruteforce_all(g, x)) == [1] * 16
        for v in range(16):
            assert count_closedform(p, x, v) == 1


@pytest.mark.parametrize("q,s", [(7, 3), (12, 5), (16, 4), (61, 6), (64, 7)])
def test_routes_agree_exhaustive(q, s):
    p = BarrettParams.create(q, s)
    g = make_barrett_gadget(p)
    for x in range(q):
        ref = ref_counts(q, s, x)
        bf = counts_bruteforce_all(g, x)
        cf = counts_closedform_all(p, x)
        assert list(bf) == ref
        assert list(cf) == ref
        for v in range(q):
            assert count_closedform(p, x, v) == ref[v]


def test_counts_match_scalar_api():
    x = 1664
    bf = counts_bruteforce_all(make_barrett_gadget(MLKEM), x)
    cf = counts_closedform_all(MLKEM, x)
    assert np.array_equal(bf, cf)
    for v in (0, 1, 720, 944, 945, 3328):
        assert int(cf[v]) == count_closedform(MLKEM, x, v)


# Rings whose rows fit a test, one per kind of offset r = 2^s mod q:
# r = 1 at q = 2^20 - 1, r = q - 1 at 2^20 + 1 and r = 0 at 2^20.
FILL_RINGS = [
    (3329, 24), (12289, 28), (2**20 - 3, 40), (2**20 - 1, 20), (2**20 + 1, 20), (2**20, 20),
]
WINDOW = 16


@st.composite
def fill_case(draw):
    """(q, s, x) on FILL_RINGS, x within 2 of 0, r, q - 1 - r, q / 2 or q - 1."""
    q, s = draw(st.sampled_from(FILL_RINGS))
    r = pow(2, s, q)
    centre = draw(st.sampled_from((0, r, q - 1 - r, q // 2, q - 1)))
    return q, s, min(q - 1, max(0, centre + draw(st.integers(-2, 2))))


@settings(max_examples=60, deadline=None)
@given(fill_case())
@example((2**20 - 1, 20, 0))
@example((2**20 - 1, 20, 2**20 - 3))
@example((2**20 + 1, 20, 0))
@example((2**20 + 1, 20, 2**20))
@example((2**20, 20, 2**19))
def test_closed_form_rows_match_the_scalar_form_around_every_flip_point(case):
    q, s, x = case
    p = BarrettParams.create(q, s)
    r = p.r
    row = counts_closedform_all(p, x)
    assert row.shape == (q,) and int(row.sum(dtype=np.int64)) == q
    # A count changes where the direct set [0, x] ends, where the wrap set
    # starts ((x + 1 + r) mod q) and ends (r - 1 mod q), and at 0 and q - 1.
    for centre in (0, x, x + 1, (x + 1 + r) % q, (r - 1) % q, r, q - 1):
        lo = max(0, centre - WINDOW // 2)
        hi = min(q, lo + WINDOW)
        want = [count_closedform(p, x, v) for v in range(lo, hi)]
        assert row[lo:hi].tolist() == want


def test_closed_form_fill_at_its_edges():
    # r = 0: the wrap set is (x, q), so every count is 1.
    p64 = BarrettParams.create(64, 6)
    assert p64.r == 0
    assert (counts_closedform_all(p64, np.arange(64)) == 1).all()
    p7 = BarrettParams.create(7, 3)  # r = 1
    # x = q - 1: the direct set is the whole ring, the wrap set is empty.
    assert counts_closedform_all(p7, 6).tolist() == [1] * 7
    # x = 2: the wrap set {4, 5, 6, 0} passes q, so the row is three slices.
    assert counts_closedform_all(p7, 2).tolist() == [2, 1, 1, 0, 1, 1, 1] == ref_counts(7, 3, 2)
    assert counts_closedform_all(BarrettParams.create(1, 0), np.arange(1)).tolist() == [[1]]
    assert counts_closedform_all(p7, np.array(3)).shape == (7,)
    assert counts_closedform_all(p7, np.array([], dtype=np.int64)).shape == (0, 7)


# Reference profile rows for q=3329, s=24: (secret, zeros, ones, twos).
KNOWN_PROFILES = [
    (0, 1, 3327, 1),
    (100, 101, 3127, 101),
    (832, 833, 1663, 833),
    (1664, 944, 1441, 944),
    (2496, 832, 1665, 832),
    (3327, 1, 3327, 1),
    (3328, 0, 3329, 0),
]


@pytest.mark.parametrize("x,zeros,ones,twos", KNOWN_PROFILES)
def test_known_profiles(x, zeros, ones, twos):
    g = make_barrett_gadget(MLKEM)
    prof = MultiplicityProfile.from_counts(x, 3329, counts_closedform_all(MLKEM, x))
    assert (prof.zeros, prof.ones, prof.twos) == (zeros, ones, twos)
    assert prof.overflow == 0
    assert prof.support_size == 3329 - zeros
    oracle = MultiplicityProfile.from_counts(x, 3329, counts_bruteforce_all(g, x))
    assert oracle == prof


def test_profile_invariant_enforcement():
    ok = MultiplicityProfile(secret=3, q=7, zeros=1, ones=5, twos=1, max_count=2)
    assert ok.zeros == 1
    assert (ok.overflow, ok.support_size) == (0, 6)
    assert ok.conserved
    # Construction accepts a broken histogram; conserved reports it.
    broken = [
        # mask mass off: ones + 2*twos = 6 != 7
        MultiplicityProfile(secret=3, q=7, zeros=2, ones=4, twos=1, max_count=2),
        # buckets do not partition q = 7: they sum to 8, so overflow is -1
        MultiplicityProfile(secret=3, q=7, zeros=1, ones=5, twos=2, max_count=2),
    ]
    assert [prof.overflow for prof in broken] == [0, -1]
    assert [prof.conserved for prof in broken] == [False, False]
    with pytest.raises(ValueError, match="counts array must have length q=7"):
        MultiplicityProfile.from_counts(3, 7, np.zeros(6, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64).flatmap(lambda q: st.lists(st.integers(-1, 3), min_size=q, max_size=q)),
    st.sampled_from([np.int8, np.int32]),
)
@example([1, 2, 0], np.int8)
@example([-1, 2, 2], np.int32)
@example([2, -1, 1, 1], np.int8)
@example([3, 0, 1, 0], np.int32)
def test_conservation_is_the_mask_mass_with_no_value_hit_three_times(counts, dtype):
    # An independent statement of the law: q masks spread over q values,
    # none hit three times and none a negative number of times.  Every
    # bucket is counted directly, so a broken row (an entry of -1 or 3)
    # stays data.
    c = np.array(counts, dtype=dtype)
    q = len(c)
    prof = MultiplicityProfile.from_counts(0, q, c)
    assert prof.conserved == (c.min() >= 0 and c.max() <= 2 and c.sum() == q)
    direct = [np.count_nonzero(c == k) for k in (0, 1, 2)]
    assert [prof.zeros, prof.ones, prof.twos] == direct
    assert prof.overflow == np.count_nonzero((c < 0) | (c >= 3))
    assert prof.max_count == c.max()
    assert prof.support_size == np.count_nonzero(c != 0)


PROFILE_FIELDS = ("secret", "zeros", "ones", "twos", "max_count")


def assert_block_is_its_rows(xs, q, counts):
    """The block profile of xs is the stack of one profile per row, and each
    field is what counting the row directly gives."""
    block = MultiplicityProfile.from_counts(xs, q, counts)
    rows = [MultiplicityProfile.from_counts(x, q, row) for x, row in zip(xs.tolist(), counts)]
    for name in (*PROFILE_FIELDS, "overflow", "support_size", "conserved"):
        column = getattr(block, name)
        assert isinstance(column, np.ndarray) and column.shape == xs.shape, name
        assert column.tolist() == [getattr(prof, name) for prof in rows], name
    assert all(type(getattr(prof, name)) is int for prof in rows for name in PROFILE_FIELDS)
    direct = [[np.count_nonzero(row == k) for row in counts] for k in (0, 1, 2)]
    assert [block.zeros.tolist(), block.ones.tolist(), block.twos.tolist()] == direct
    assert block.max_count.tolist() == counts.max(axis=1).tolist()
    assert block.zeros.dtype == block.max_count.dtype == np.int64
    assert block == MultiplicityProfile.from_counts(xs.copy(), q, counts.copy())
    assert block != replace(block, ones=block.ones + np.arange(len(xs)) % 2 + 1) != rows[0]
    assert rows[0] == MultiplicityProfile.from_counts(int(xs[0]), q, counts[0].copy())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 97).flatmap(lambda q: st.tuples(
        st.just(q),
        st.integers(0, 40),
        st.lists(st.integers(0, q - 1), min_size=1, max_size=8),
    )),
    st.sampled_from(["closedform", "bruteforce", "uint16"]),
)
def test_block_profile_is_a_stack_of_row_profiles(case, route):
    # Closed-form and enumeration blocks, and the lane's unsigned twin that
    # the mass guard recounts in.
    q, s, secrets = case
    p = BarrettParams.create(q, s)
    xs = np.array(secrets, dtype=np.int64)
    if route == "bruteforce":
        counts = counts_bruteforce_all(make_barrett_gadget(p), xs)
    else:
        counts = counts_closedform_all(p, xs)
    if route == "uint16":
        counts = counts.astype(np.uint16)
    assert_block_is_its_rows(xs, q, counts)
    paper = support_gap_predicted_paper(p, xs)
    extended = support_gap_predicted_extended(p, xs)
    assert paper == [support_gap_predicted_paper(p, x) for x in secrets]
    assert extended == [support_gap_predicted_extended(p, x) for x in secrets]
    block = MultiplicityProfile.from_counts(xs, q, counts)
    assert extended == block.zeros.tolist() == block.twos.tolist()
    assert block.conserved.all()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda q: st.lists(
        st.lists(st.integers(-2, 300), min_size=q, max_size=q), min_size=1, max_size=6
    )),
    st.sampled_from([np.uint8, np.uint16, np.int8, np.int16, np.int64]),
)
@example([[3, 0, 0, 1], [1, 1, 1, 1]], np.uint8)
@example([[-1, 2, 2], [2, 1, 0]], np.int64)
@example([[300, 0], [1, 1]], np.uint16)
def test_broken_block_rows_stay_data(rows, dtype):
    # Rows past 0..2, or negative, are profiled as they are: any row of the
    # block may hold them, and the ones are then counted, not derived.
    info = np.iinfo(dtype)
    counts = np.clip(np.array(rows), info.min, info.max).astype(dtype)
    xs = np.arange(len(rows), dtype=np.int64) % counts.shape[1]
    assert_block_is_its_rows(xs, counts.shape[1], counts)


def test_block_profile_of_rows_longer_than_a_block():
    # A row longer than BLOCK_BYTES is compared in slices, alone or with
    # another row; a value hit three times makes the ones counted too.
    q = BLOCK_BYTES + 1001
    p = BarrettParams.create(q, 40)
    xs = np.array([5, q // 3], dtype=np.int64)
    counts = counts_closedform_all(p, xs)
    assert_block_is_its_rows(xs[1:], q, counts[1:])
    assert_block_is_its_rows(xs, q, counts)
    broken = counts.astype(np.int64)
    broken[0, :3] = (3, 0, 0)
    assert_block_is_its_rows(xs, q, broken)


def test_predictors_take_every_secret_at_once():
    # The block form of each predictor against the published formulas on
    # plain ints, at every secret and every offset class of small rings.
    for q in range(1, 40):
        for s in range(0, 12):
            p = BarrettParams.create(q, s)
            r = p.r
            xs = np.arange(q)
            assert support_gap_predicted_paper(p, xs) == [
                max(0, min(x + 1, q - r, q - 1 - x)) for x in range(q)
            ]
            assert support_gap_predicted_extended(p, xs) == [
                max(0, min(x + 1, q - 1 - x, r, q - r)) for x in range(q)
            ]


def test_block_forms_reject_a_non_canonical_secret():
    p = BarrettParams.create(7, 3)
    xs = np.array([0, 7, 3])
    for call in (
        support_gap_predicted_paper,
        support_gap_predicted_extended,
        lambda p, xs: MultiplicityProfile.from_counts(xs, p.q, np.ones((3, 7), np.uint8)),
    ):
        with pytest.raises(ValueError, match="^secret 7 not canonical for modulus 7$"):
            call(p, xs)
    with pytest.raises(ValueError, match="counts array must have length q=7"):
        MultiplicityProfile.from_counts(np.array([0, 1]), 7, np.ones((3, 7), np.uint8))


def test_gap_predictors_small_case():
    # q=7, s=3 has r=1, the regime where the three-term predictor overshoots.
    p = BarrettParams.create(7, 3)
    g = make_barrett_gadget(p)
    observed = np.count_nonzero(counts_bruteforce_all(g, np.arange(7)) == 0, axis=1).tolist()
    assert observed == [1, 1, 1, 1, 1, 1, 0]
    paper = [support_gap_predicted_paper(p, x) for x in range(7)]
    assert paper == [1, 2, 3, 3, 2, 1, 0]
    extended = [support_gap_predicted_extended(p, x) for x in range(7)]
    assert extended == observed


def test_gap_predictors_mlkem():
    # Every secret's zeros by mask enumeration, one scan block at a time.
    route = partial(counts_bruteforce_all, make_barrett_gadget(MLKEM))
    blocks = scan(3329, range(3329), route, lambda xs, c: np.count_nonzero(c == 0, axis=1).tolist())
    observed = [zeros for block in blocks for zeros in block]
    assert len(observed) == 3329
    for x, obs in enumerate(observed):
        assert support_gap_predicted_extended(MLKEM, x) == obs
        # 2r >= q here, so the published predictor agrees everywhere too.
        assert support_gap_predicted_paper(MLKEM, x) == obs


def test_gap_extended_large_case():
    p = BarrettParams.create(8380417, 48)
    assert p.r == 196580
    x = 4000000
    assert support_gap_predicted_extended(p, x) == 196580
    g = make_barrett_gadget(p)
    prof = MultiplicityProfile.from_counts(x, p.q, counts_bruteforce_all(g, x))
    assert prof.zeros == 196580
    # Here the three-term form reports x + 1 instead: its min lacks the r term.
    assert support_gap_predicted_paper(p, x) == 4000001


def test_gap_zero_offset():
    p = BarrettParams.create(16, 4)
    counts = counts_bruteforce_all(make_barrett_gadget(p), np.arange(16))
    assert not np.count_nonzero(counts == 0)
    for x in range(16):
        assert support_gap_predicted_extended(p, x) == 0


@given(
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0, max_value=20),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_extended_predictor_matches_enumeration(q, s, data):
    x = data.draw(st.integers(min_value=0, max_value=q - 1))
    p = BarrettParams.create(q, s)
    zeros = ref_counts(q, s, x).count(0)
    assert support_gap_predicted_extended(p, x) == zeros


@given(
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0, max_value=20),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_predictors_agree_when_offset_large(q, s, data):
    p = BarrettParams.create(q, s)
    r = p.r
    if not (r != 0 and 2 * r >= q):
        return
    x = data.draw(st.integers(min_value=0, max_value=q - 1))
    assert support_gap_predicted_paper(p, x) == support_gap_predicted_extended(p, x)


@given(
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=0, max_value=20),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_count_trichotomy_and_conservation_random(q, s, data):
    x = data.draw(st.integers(min_value=0, max_value=q - 1))
    p = BarrettParams.create(q, s)
    counts = ref_counts(q, s, x)
    assert max(counts) <= 2
    for v in range(q):
        assert count_closedform(p, x, v) == counts[v]
    prof = MultiplicityProfile.from_counts(x, q, np.array(counts, dtype=np.int64))
    assert prof.zeros == prof.twos
    assert prof.ones + 2 * prof.twos == q


def test_trichotomy_check_closedform():
    rep = trichotomy_check(MLKEM)
    assert rep.passed
    assert rep.secrets_checked == 3329
    assert rep.pairs_checked == 3329 * 3329
    assert rep.max_count_seen == 2
    assert rep.route == "closedform"
    assert (rep.cx_secret, rep.cx_value, rep.cx_count) == (None, None, None)


@pytest.mark.parametrize("q,s", [(7, 3), (61, 6), (64, 6)])
def test_trichotomy_check_oracle(q, s):
    rep = trichotomy_check(BarrettParams.create(q, s), oracle=True)
    assert rep.passed
    assert rep.route == "bruteforce"
    assert rep.secrets_checked == q


def test_trichotomy_check_subset_and_bijection():
    rep = trichotomy_check(MLKEM, secrets=[0, 100, 3328])
    assert rep.passed and rep.secrets_checked == 3
    rep0 = trichotomy_check(BarrettParams.create(16, 4))
    assert rep0.passed and rep0.max_count_seen == 1


def _three_hit_at_secret_5(_p_or_gadget, xs):
    """All ones, except secret 5's row gets counts 0, 3, 0 on values 0, 1, 2."""
    counts = np.ones((len(xs), 61), dtype=np.int8)
    counts[np.asarray(xs) == 5, :3] = (0, 3, 0)
    return counts


@pytest.mark.parametrize(
    "route,oracle",
    [("counts_closedform_all", False), ("counts_bruteforce_all", True)],
)
def test_trichotomy_check_stops_at_first_counterexample(monkeypatch, route, oracle):
    import maskwire.preimage as preimage

    monkeypatch.setattr(preimage, route, _three_hit_at_secret_5)
    rep = trichotomy_check(BarrettParams.create(61, 6), oracle=oracle)
    assert not rep.passed
    assert rep.route == ("bruteforce" if oracle else "closedform")
    assert (rep.cx_secret, rep.cx_value, rep.cx_count) == (5, 1, 3)
    assert rep.secrets_checked == 6
    assert rep.pairs_checked == 366
    assert rep.max_count_seen == 3


@pytest.mark.parametrize("x", [-1, 7, 10])
def test_non_canonical_secret_rejected(x):
    # 10 = 3 (mod 7), and secret 3 has a two-preimage value: a route that
    # counted secret 10 as given would see all ones and pass trichotomy.
    p = BarrettParams.create(7, 3)
    with pytest.raises(ValueError, match="not canonical"):
        counts_closedform_all(p, x)
    with pytest.raises(ValueError, match="not canonical"):
        counts_bruteforce_all(make_barrett_gadget(p), x)
    with pytest.raises(ValueError, match="not canonical"):
        trichotomy_check(p, secrets=[x])
    with pytest.raises(ValueError, match="not canonical"):
        trichotomy_check(p, secrets=[x], oracle=True)


@pytest.mark.parametrize("x", [-1, 7, 10])
@pytest.mark.parametrize(
    "word, call",
    [
        ("secret", lambda p, x: count_closedform(p, x, 0)),
        ("value", lambda p, x: count_closedform(p, 0, x)),
        ("secret", support_gap_predicted_paper),
        ("secret", support_gap_predicted_extended),
        ("secret", lambda p, x: MultiplicityProfile.from_counts(x, p.q, np.ones(p.q, np.int8))),
    ],
    ids=["count-secret", "count-value", "gap-paper", "gap-extended", "from-counts"],
)
def test_scalar_forms_reject_a_non_canonical_int(word, call, x):
    # Each takes plain ints, so each checks [0, q) itself: at 10 = 3 (mod 7)
    # the formulas would otherwise answer for a secret outside the ring.
    p = BarrettParams.create(7, 3)
    with pytest.raises(ValueError, match=f"^{word} {x} not canonical for modulus 7$"):
        call(p, x)


def test_trichotomy_check_trivial_ring():
    rep = trichotomy_check(BarrettParams.create(1, 0))
    assert rep.passed
    assert rep.secrets_checked == 1
    assert rep.pairs_checked == 1
    assert rep.max_count_seen == 1


def test_witness_search_collision_params():
    rep = tightness_witness_search(MLKEM)
    assert rep.found and rep.count == 2 and rep.verified
    assert rep.mask_a != rep.mask_b
    q, s = 3329, 24
    assert ref_wire(q, s, rep.secret, rep.mask_a) == rep.value
    assert ref_wire(q, s, rep.secret, rep.mask_b) == rep.value
    # Ascending scan lands on the earliest collision, which sits at x = 0.
    assert rep.secret == 0 and rep.value == 0


def test_witness_search_bijection_params():
    rep = tightness_witness_search(BarrettParams.create(16, 4))
    assert not rep.found and rep.verified
    assert rep.secret is None


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=70))
@settings(max_examples=200, deadline=None)
def test_witness_is_first_two_preimage_pair(q, s):
    rep = tightness_witness_search(BarrettParams.create(q, s))
    first = next(
        (
            (x, v)
            for x in range(q)
            for v, count in enumerate(ref_counts(q, s, x))
            if count == 2
        ),
        None,
    )
    if first is None:
        assert not rep.found
        return
    assert rep.found and rep.count == 2
    assert (rep.secret, rep.value) == first
    assert rep.mask_a != rep.mask_b
    x, v = first
    assert ref_wire(q, s, x, rep.mask_a) == v
    assert ref_wire(q, s, x, rep.mask_b) == v


@pytest.mark.parametrize("limit", [1, 2**12, 2**14, 2**16])
def test_default_secrets_limit_is_inclusive(limit):
    assert _secret_scope(limit, 3, limit) == (range(limit), "exhaustive")
    over, _ = _secret_scope(limit + 1, 3, limit)
    assert not isinstance(over, range)
    assert over == sample_secrets(limit + 1, 16, seed=3)


def test_equivalence_exhaustive():
    rep = equivalence_check(BarrettParams.create(61, 6))
    assert rep.passed
    assert rep.pairs_checked == 61 * 61
    assert rep.pair_mode == "exhaustive"
    assert (rep.mm_secret, rep.mm_mask, rep.mm_algebraic, rep.mm_hw) == (None,) * 4


def test_equivalence_sampled_deterministic():
    a = equivalence_check(MLKEM, sample=5000, seed=42)
    b = equivalence_check(MLKEM, sample=5000, seed=42)
    assert a == b
    assert a.passed and a.pairs_checked == 5000


def test_equivalence_out_of_scope():
    with pytest.raises(ScopeConditionError):
        equivalence_check(BarrettParams.create(5, 2))


def test_sampling_helpers():
    assert sample_secrets(10, 20) == list(range(10))
    picked = sample_secrets(3329, 16, seed=0)
    assert picked == sorted(picked)
    assert len(set(picked)) == 16
    assert picked == sample_secrets(3329, 16, seed=0)
    assert picked != sample_secrets(3329, 16, seed=1)
