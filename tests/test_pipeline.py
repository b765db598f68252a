"""Two-stage composition under fresh and shared masking."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskwire.gadgets import BarrettParams, make_barrett_gadget, make_identity_gadget
from maskwire.modring import Modulus
from maskwire.pipeline import PipelineSpec, compose

from reference import ref_wire


def _identity_pair(q, mode):
    ring = Modulus(q)
    return PipelineSpec(make_identity_gadget(ring), make_identity_gadget(ring), mode)


def _id_barrett(q, s, mode):
    p = BarrettParams.create(q, s)
    return PipelineSpec(make_identity_gadget(p.q), make_barrett_gadget(p), mode)


def test_spec_validation():
    with pytest.raises(ValueError):
        _identity_pair(7, "parallel")
    with pytest.raises(ValueError):
        PipelineSpec(
            make_identity_gadget(Modulus(7)), make_identity_gadget(Modulus(11)), "fresh"
        )


def test_fresh_identity_barrett():
    rep = compose(_id_barrett(3329, 24, "fresh"))
    assert rep.wire1_max_mult == 1
    assert rep.wire2_max_mult == 2
    assert rep.pipeline_max_mult == 2
    assert rep.bound_fresh == 2
    assert rep.bound_product == 2
    assert rep.fresh_bound_holds and rep.product_bound_holds
    assert rep.secrets_checked == 3329


def test_fresh_identity_identity():
    rep = compose(_identity_pair(11, "fresh"))
    assert rep.pipeline_max_mult == 1
    assert rep.bound_fresh == 1
    assert rep.fresh_bound_holds


def test_fresh_barrett_barrett():
    p = BarrettParams.create(7, 3)
    spec = PipelineSpec(make_barrett_gadget(p), make_barrett_gadget(p), "fresh")
    rep = compose(spec)
    assert rep.wire1_max_mult == 2
    assert rep.wire2_max_mult == 2
    assert rep.pipeline_max_mult == 2
    assert rep.bound_fresh == 2
    assert rep.bound_product == 4
    assert rep.fresh_bound_holds


@pytest.mark.parametrize("q", list(range(1, 65)))
def test_shared_identity_identity_parity_law(q):
    # Shared mask feeds through as x - 2m: bijective iff 2 is invertible mod q.
    rep = compose(_identity_pair(q, "shared"))
    expected = 1 if q % 2 == 1 else 2
    assert rep.wire2_max_mult == expected
    assert rep.pipeline_max_mult == expected
    assert rep.product_bound_holds == (expected == 1)


def test_shared_identity_identity_examples():
    rep7 = compose(_identity_pair(7, "shared"))
    assert rep7.pipeline_max_mult == 1
    assert rep7.secrets_checked == 7
    rep4 = compose(_identity_pair(4, "shared"))
    assert rep4.pipeline_max_mult == 2
    assert rep4.bound_product == 1
    assert not rep4.product_bound_holds
    assert not rep4.fresh_bound_holds


def test_shared_barrett_barrett_measured():
    # Oracle: enumerate m -> wire2(wire1(x, m), m) on plain ints.
    q, s = 7, 3
    expected = 0
    for x in range(q):
        hits = [0] * q
        for m in range(q):
            hits[ref_wire(q, s, ref_wire(q, s, x, m), m)] += 1
        expected = max(expected, max(hits))
    p = BarrettParams.create(q, s)
    spec = PipelineSpec(make_barrett_gadget(p), make_barrett_gadget(p), "shared")
    rep = compose(spec)
    assert rep.pipeline_max_mult == expected == 3
    assert rep.bound_product == 4
    assert rep.product_bound_holds
    # Mask reuse breaks the fresh bound here, and that is reported as data.
    assert not rep.fresh_bound_holds


def test_default_secret_scope():
    # With no secrets compose scans every one; sampling past a limit is the CLI's rule.
    rep = compose(_identity_pair(64, "shared"))
    assert rep.secrets_checked == 64
    assert rep == compose(_identity_pair(64, "shared"), secrets=range(64))


def test_explicit_secrets():
    rep = compose(_id_barrett(3329, 24, "fresh"), secrets=[0, 100, 3328])
    assert rep.secrets_checked == 3
    assert rep.pipeline_max_mult == 2


@pytest.mark.parametrize("mode", ["fresh", "shared"])
def test_non_canonical_secret_rejected(mode):
    # 10 = 3 (mod 7), where the barrett stage has a two-preimage value;
    # enumerating secret 10 as given would measure all ones instead.
    with pytest.raises(ValueError, match="not canonical"):
        compose(_id_barrett(7, 3, mode), secrets=[10])


@st.composite
def pipeline_case(draw):
    """(q, s, stage names, mode, secrets) with q <= 60; secrets None or a list."""
    q = draw(st.integers(1, 60))
    s = draw(st.integers(0, 12))
    stage = st.sampled_from(["identity", "barrett"])
    names = draw(st.tuples(stage, stage))
    mode = draw(st.sampled_from(["fresh", "shared"]))
    secrets = draw(st.none() | st.lists(st.integers(0, q - 1), max_size=5))
    return q, s, names, mode, secrets


@settings(max_examples=150, deadline=None)
@given(pipeline_case())
def test_compose_matches_scalar_loops(case):
    q, s, (first, second), mode, secrets = case
    p = BarrettParams.create(q, s)

    def build(name):
        return make_barrett_gadget(p) if name == "barrett" else make_identity_gadget(p.q)

    def wire(name, x, m):
        return ref_wire(q, s, x, m) if name == "barrett" else (x - m) % q

    scope = range(q) if secrets is None else secrets
    k1 = k2 = 0
    for x in scope:
        k1 = max(k1, max(Counter(wire(first, x, m) for m in range(q)).values()))
        if mode == "fresh":
            wire2 = Counter(wire(second, x, m) for m in range(q))
        else:
            wire2 = Counter(wire(second, wire(first, x, m), m) for m in range(q))
        k2 = max(k2, max(wire2.values()))

    rep = compose(PipelineSpec(build(first), build(second), mode), secrets=secrets)
    assert rep.mode == mode
    assert rep.secrets_checked == len(scope)
    assert rep.wire1_max_mult == k1
    assert rep.wire2_max_mult == k2
    assert rep.pipeline_max_mult == max(k1, k2)
