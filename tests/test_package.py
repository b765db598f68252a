"""The package's public names."""

import importlib
from dataclasses import fields

import pytest

import maskwire


def test_every_exported_name_resolves():
    missing = [name for name in maskwire.__all__ if not hasattr(maskwire, name)]
    assert missing == []
    assert len(set(maskwire.__all__)) == len(maskwire.__all__)


def test_compose_is_the_only_composition_entry_point():
    for name in ("compose_fresh", "compose_shared"):
        assert name not in maskwire.__all__
        assert not hasattr(maskwire, name)
    assert "compose" in maskwire.__all__


def test_compose_takes_its_stages_directly():
    # No argument bundle: the two stages and the mode are compose's own parameters.
    import inspect

    from maskwire import pipeline

    assert "PipelineSpec" not in maskwire.__all__
    assert not hasattr(maskwire, "PipelineSpec")
    assert not hasattr(pipeline, "PipelineSpec")
    assert list(inspect.signature(maskwire.compose).parameters) == [
        "stage1", "stage2", "mode", "secrets"
    ]


def test_scalar_pass_throughs_are_gone():
    import maskwire.gadgets as gadgets
    import maskwire.modring as modring
    import maskwire.preimage as preimage

    for name in (
        "count_bruteforce",
        "support_gap_observed",
        "multiplicity_profile",
        "barrett_algebraic_eval",
        "barrett_nat_eval",
        "identity_mask_eval",
        "reduce",
    ):
        assert name not in maskwire.__all__
        assert not hasattr(maskwire, name)
        for module in (preimage, gadgets, modring):
            assert not hasattr(module, name)
    for attr in ("__add__", "__sub__", "__int__", "_check_same_ring"):
        assert attr not in vars(modring.ZqElem)
    assert [f.name for f in fields(maskwire.WireGadget)] == [
        "name", "q", "claimed_max_mult", "eval_vec"
    ]


def test_presets_live_in_the_cli():
    # entropy's two (q, s) pairs are a CLI table: no presets module, no
    # Preset record and no one-row table builder in the package.
    from maskwire import cli, leakage

    for name in ("Preset", "PRESETS", "get_preset", "barrier_table"):
        assert name not in maskwire.__all__
        assert not hasattr(maskwire, name)
    assert not hasattr(leakage, "barrier_table")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("maskwire.presets")
    assert cli.PRESETS == {"mlkem": (3329, 24), "mldsa": (8380417, 48)}


def test_ring_wrappers_stay_in_modring():
    # q, r and secrets are plain ints past construction: the package
    # exports none of modring's types, which stay importable from modring.
    import maskwire.modring as modring

    for name in ("Modulus", "ZqElem", "branch_offset"):
        assert name not in maskwire.__all__
        assert not hasattr(maskwire, name)
        assert hasattr(modring, name)
    assert [f.name for f in fields(maskwire.MultiplicityProfile)] == [
        "secret", "q", "zeros", "ones", "twos", "max_count"
    ]
    assert [f.name for f in fields(maskwire.BarrettParams)] == ["q", "s", "r"]
