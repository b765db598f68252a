"""The package's public names."""

import inspect

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


def test_scalar_pass_throughs_are_gone():
    import maskwire.preimage as preimage

    for name in ("count_bruteforce", "support_gap_observed"):
        assert name not in maskwire.__all__
        assert not hasattr(maskwire, name)
        assert not hasattr(preimage, name)
    params = inspect.signature(maskwire.multiplicity_profile).parameters
    assert list(params) == ["g", "x"]
