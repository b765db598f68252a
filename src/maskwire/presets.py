"""Named (q, s) parameter sets for the lattice schemes this tooling targets."""

from __future__ import annotations

from dataclasses import dataclass

from .gadgets import BarrettParams


@dataclass(frozen=True)
class Preset:
    name: str
    q: int
    s: int

    def params(self) -> BarrettParams:
        return BarrettParams.create(self.q, self.s)


PRESETS = {
    "mlkem": Preset(name="mlkem", q=3329, s=24),
    "mldsa": Preset(name="mldsa", q=8380417, s=48),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
