"""Two-stage gadget composition under fresh or shared masking.

One loop, compose(spec), measures both observable wires by brute force
for every secret, a block of secrets per scan; the mode only decides
what the second wire is.  Fresh mode draws an independent mask per
stage, so the second wire is stage 2's own masked map and the pipeline
inherits the worst single-stage multiplicity.  Shared mode reuses one
mask across both stages, so the second wire composes through the first.
The product of the per-stage claims is reported as context for the
shared case, never asserted — shared masking can beat it or break the
fresh bound, and both outcomes are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gadgets import IntOrArray, WireGadget
from .preimage import (
    DEFAULT_SEED,
    counts_bruteforce_all,
    default_secrets,
    secret_blocks,
    tally_masks,
)

# Per-secret mask enumeration is O(q), so exhaustive secret sweeps stop here.
PIPELINE_EXHAUSTIVE_LIMIT = 2**12

MODES = ("fresh", "shared")


@dataclass(frozen=True)
class PipelineSpec:
    """Two stages over one ring plus the masking discipline between them."""

    stage1: WireGadget
    stage2: WireGadget
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.stage1.q != self.stage2.q:
            raise ValueError(
                f"stages must share a modulus, got q={self.stage1.q.q} "
                f"and q={self.stage2.q.q}"
            )


@dataclass(frozen=True)
class CompositionReport:
    mode: str
    q: int
    secrets_checked: int
    wire1_max_mult: int
    wire2_max_mult: int
    pipeline_max_mult: int
    bound_fresh: int
    bound_product: int
    fresh_bound_holds: bool
    product_bound_holds: bool


def _composed_counts_shared(spec: PipelineSpec, x: IntOrArray) -> np.ndarray:
    """Histograms of m -> stage2(stage1(x, m), m) over all masks m, shape(x) + (q,)."""
    stage1, stage2 = spec.stage1.eval_vec, spec.stage2.eval_vec
    return tally_masks(spec.stage1.q.q, x, lambda xs, masks: stage2(stage1(xs, masks), masks))


def compose(
    spec: PipelineSpec,
    secrets: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
) -> CompositionReport:
    """Measure both wires over the secrets, under the spec's masking mode.

    secrets = None applies default_secrets with PIPELINE_EXHAUSTIVE_LIMIT.
    """
    if secrets is None:
        secrets = default_secrets(spec.stage1.q.q, seed, PIPELINE_EXHAUSTIVE_LIMIT)
    k1 = 0
    k2 = 0
    checked = 0
    for block in secret_blocks(secrets, spec.stage1):
        k1 = max(k1, int(counts_bruteforce_all(spec.stage1, block).max()))
        if spec.mode == "fresh":
            # Both stage kinds compute the identity on a canonical residue,
            # so stage 2 receives the secrets themselves.
            wire2 = counts_bruteforce_all(spec.stage2, block)
        else:
            wire2 = _composed_counts_shared(spec, block)
        k2 = max(k2, int(wire2.max()))
        checked += len(block)
    pipeline = max(k1, k2)
    bound_fresh = max(spec.stage1.claimed_max_mult, spec.stage2.claimed_max_mult)
    bound_product = spec.stage1.claimed_max_mult * spec.stage2.claimed_max_mult
    return CompositionReport(
        mode=spec.mode,
        q=spec.stage1.q.q,
        secrets_checked=checked,
        wire1_max_mult=k1,
        wire2_max_mult=k2,
        pipeline_max_mult=pipeline,
        bound_fresh=bound_fresh,
        bound_product=bound_product,
        fresh_bound_holds=pipeline <= bound_fresh,
        product_bound_holds=pipeline <= bound_product,
    )
