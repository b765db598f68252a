"""Two-stage gadget composition under fresh or shared masking.

Fresh mode draws an independent mask per stage, so each observable wire
is just that stage's own masked map and the pipeline inherits the worst
single-stage multiplicity.  Shared mode reuses one mask across both
stages; the second wire then composes through the first and its
multiplicity is measured by brute force.  The product of the per-stage
claims is reported as context for the shared case, never asserted —
shared masking can beat it or break the fresh bound, and both outcomes
are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gadgets import WireGadget
from .preimage import DEFAULT_SEED, counts_bruteforce_all, default_secrets, tally_masks

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


def _composed_counts_shared(spec: PipelineSpec, x: int) -> np.ndarray:
    """Histogram of m -> stage2(stage1(x, m), m) over all masks m."""
    stage1, stage2 = spec.stage1.eval_vec, spec.stage2.eval_vec
    return tally_masks(spec.stage1.q.q, lambda masks: stage2(stage1(x, masks), masks))


def compose_fresh(
    spec: PipelineSpec,
    secrets: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
) -> CompositionReport:
    """Measure both wires with independent masks per stage."""
    if spec.mode != "fresh":
        raise ValueError("compose_fresh requires mode=fresh")
    if secrets is None:
        secrets = default_secrets(spec.stage1.q.q, seed, PIPELINE_EXHAUSTIVE_LIMIT)
    k1 = 0
    k2 = 0
    checked = 0
    for x in secrets:
        k1 = max(k1, int(counts_bruteforce_all(spec.stage1, x).max()))
        # Both stage kinds compute the identity on a canonical residue, so
        # stage 2 receives the secret itself.
        k2 = max(k2, int(counts_bruteforce_all(spec.stage2, x).max()))
        checked += 1
    return _report(spec, checked, k1, k2, max(k1, k2))


def compose_shared(
    spec: PipelineSpec,
    secrets: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
) -> CompositionReport:
    """Measure the stage-1 wire and the mask-reusing composed wire."""
    if spec.mode != "shared":
        raise ValueError("compose_shared requires mode=shared")
    if secrets is None:
        secrets = default_secrets(spec.stage1.q.q, seed, PIPELINE_EXHAUSTIVE_LIMIT)
    k1 = 0
    k2 = 0
    checked = 0
    for x in secrets:
        k1 = max(k1, int(counts_bruteforce_all(spec.stage1, x).max()))
        k2 = max(k2, int(_composed_counts_shared(spec, x).max()))
        checked += 1
    return _report(spec, checked, k1, k2, max(k1, k2))


def compose(
    spec: PipelineSpec,
    secrets: Optional[Sequence[int]] = None,
    seed: int = DEFAULT_SEED,
) -> CompositionReport:
    """Dispatch on the pipeline's masking mode."""
    if spec.mode == "fresh":
        return compose_fresh(spec, secrets, seed)
    return compose_shared(spec, secrets, seed)


def _report(
    spec: PipelineSpec, checked: int, k1: int, k2: int, pipeline: int
) -> CompositionReport:
    c1 = spec.stage1.claimed_max_mult
    c2 = spec.stage2.claimed_max_mult
    bound_fresh = max(c1, c2)
    bound_product = c1 * c2
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
