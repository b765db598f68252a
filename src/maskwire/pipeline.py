"""Two-stage gadget composition under fresh or shared masking.

compose(stage1, stage2, mode, secrets) takes two stages over one ring
and measures both observable wires by brute force, one preimage.scan
each over the secrets; the mode only decides what the second wire is.
Fresh mode draws an independent mask per stage, so the second wire is
stage 2's own masked map and the pipeline inherits the worst
single-stage multiplicity.  Shared mode reuses one mask across both
stages, so the second wire composes through the first: it is
_shared_wire(stage1, stage2), a gadget of its own.  The product of the
per-stage claims is reported as context for the shared case, never
asserted — shared masking can beat it or break the fresh bound, and
both outcomes are data.
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


def _shared_wire(stage1: WireGadget, stage2: WireGadget) -> WireGadget:
    """The wire m -> stage2(stage1(x, m), m) of one mask fed through both stages."""
    return WireGadget(
        name=f"{stage1.name}+{stage2.name}",
        q=stage1.q,
        claimed_max_mult=stage1.claimed_max_mult * stage2.claimed_max_mult,
        eval_vec=lambda x, m: stage2.eval_vec(stage1.eval_vec(x, m), m),
    )


def compose(
    stage1: WireGadget, stage2: WireGadget, mode: str,
    secrets: Optional[Sequence[int]] = None,
) -> CompositionReport:
    """Measure both wires over the secrets, under the masking mode.

    secrets = None scans every secret, as trichotomy_check does.  The
    mode, the shared modulus and the secrets' kind are checked before
    any count: secrets is scanned twice, so an iterator is a TypeError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if stage1.q != stage2.q:
        raise ValueError(f"stages must share a modulus, got q={stage1.q} and q={stage2.q}")
    if secrets is None:
        secrets = range(stage1.q)
    elif iter(secrets) is secrets:
        raise TypeError("compose scans the secrets twice: pass a sequence, not an iterator")

    def peak(wire: WireGadget) -> int:
        count = partial(counts_bruteforce_all, wire)
        return max(scan(wire.q, secrets, count, lambda xs, c: int(c.max())), default=0)

    k1 = peak(stage1)
    # Both stage kinds compute the identity on a canonical residue, so in
    # fresh mode stage 2 receives the secrets themselves.
    k2 = peak(stage2 if mode == "fresh" else _shared_wire(stage1, stage2))
    pipeline = max(k1, k2)
    bound_fresh = max(stage1.claimed_max_mult, stage2.claimed_max_mult)
    bound_product = stage1.claimed_max_mult * stage2.claimed_max_mult
    return CompositionReport(
        mode=mode,
        q=stage1.q,
        stages=f"{stage1.name}+{stage2.name}",
        wire1_max_mult=k1,
        wire2_max_mult=k2,
        pipeline_max_mult=pipeline,
        bound_fresh=bound_fresh,
        bound_product=bound_product,
        fresh_bound_holds=pipeline <= bound_fresh,
        product_bound_holds=pipeline <= bound_product,
        secrets_checked=len(secrets),
    )
