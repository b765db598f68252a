"""Two-stage gadget composition under fresh or shared masking.

compose(spec, secrets) measures both observable wires by brute force,
one preimage.scan each over the secrets; the mode only decides what the
second wire is.  Fresh mode draws an independent mask per stage, so the
second wire is stage 2's own masked map and the pipeline inherits the
worst single-stage multiplicity.  Shared mode reuses one mask across
both stages, so the second wire composes through the first: it is
_shared_wire(spec), a gadget of its own.  The product of the per-stage
claims is reported as context for the shared case, never asserted —
shared masking can beat it or break the fresh bound, and both outcomes
are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .gadgets import WireGadget
from .preimage import counts_bruteforce_all, scan

# Per-secret mask enumeration is O(q), so the CLI samples secrets past this q.
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
                f"stages must share a modulus, got q={self.stage1.q} "
                f"and q={self.stage2.q}"
            )


@dataclass(frozen=True)
class CompositionReport:
    """compose's row in column order; a new field is a new column and changes the digests."""

    mode: str
    q: int
    stages: str
    wire1_max_mult: int
    wire2_max_mult: int
    pipeline_max_mult: int
    bound_fresh: int
    bound_product: int
    fresh_bound_holds: bool
    product_bound_holds: bool
    secrets_checked: int


def _shared_wire(spec: PipelineSpec) -> WireGadget:
    """The wire m -> stage2(stage1(x, m), m) of one mask fed through both stages."""
    s1, s2 = spec.stage1, spec.stage2
    return WireGadget(
        name=f"{s1.name}+{s2.name}",
        q=s1.q,
        claimed_max_mult=s1.claimed_max_mult * s2.claimed_max_mult,
        eval_vec=lambda x, m: s2.eval_vec(s1.eval_vec(x, m), m),
    )


def compose(spec: PipelineSpec, secrets: Optional[Sequence[int]] = None) -> CompositionReport:
    """Measure both wires over the secrets, under the spec's masking mode.

    secrets = None scans every secret, as trichotomy_check does.
    secrets is scanned twice, so it must be a sequence, not an iterator.
    """
    if secrets is None:
        secrets = range(spec.stage1.q)

    def peak(wire: WireGadget) -> int:
        count = partial(counts_bruteforce_all, wire)
        blocks = scan(wire.q, secrets, count, lambda xs, c: int(c.max()))
        return max((k for k, _ in blocks), default=0)

    k1 = peak(spec.stage1)
    # Both stage kinds compute the identity on a canonical residue, so in
    # fresh mode stage 2 receives the secrets themselves.
    k2 = peak(spec.stage2 if spec.mode == "fresh" else _shared_wire(spec))
    pipeline = max(k1, k2)
    bound_fresh = max(spec.stage1.claimed_max_mult, spec.stage2.claimed_max_mult)
    bound_product = spec.stage1.claimed_max_mult * spec.stage2.claimed_max_mult
    return CompositionReport(
        mode=spec.mode,
        q=spec.stage1.q,
        stages=f"{spec.stage1.name}+{spec.stage2.name}",
        wire1_max_mult=k1,
        wire2_max_mult=k2,
        pipeline_max_mult=pipeline,
        bound_fresh=bound_fresh,
        bound_product=bound_product,
        fresh_bound_holds=pipeline <= bound_fresh,
        product_bound_holds=pipeline <= bound_product,
        secrets_checked=len(secrets),
    )
