"""Exact leakage analysis for arithmetic-masked modular-reduction wires.

The library answers one question about the internal wire of a masked
Barrett-style reduction over Z_q: for a fixed secret, how many masks
send the wire to each output value?  Everything else — support gaps,
min-entropy floors, composition behavior — is bookkeeping on top of
those preimage counts.
"""

from ._version import VERSION as __version__
from .gadgets import (
    BarrettParams,
    ScopeConditionError,
    WireGadget,
    make_barrett_gadget,
    make_identity_gadget,
)
from .leakage import (
    MAX_LEAKAGE_BITS,
    barrier_table,
    floor_bits,
    min_entropy,
)
from .pipeline import CompositionReport, PipelineSpec, compose
from .preimage import (
    EquivalenceReport,
    MultiplicityProfile,
    TrichotomyReport,
    WitnessReport,
    count_closedform,
    counts_bruteforce_all,
    counts_closedform_all,
    equivalence_check,
    sample_secrets,
    support_gap_predicted_extended,
    support_gap_predicted_paper,
    tightness_witness_search,
    trichotomy_check,
)
from .presets import PRESETS, Preset, get_preset

__all__ = [
    "__version__",
    "BarrettParams",
    "ScopeConditionError",
    "WireGadget",
    "make_barrett_gadget",
    "make_identity_gadget",
    "MultiplicityProfile",
    "WitnessReport",
    "TrichotomyReport",
    "EquivalenceReport",
    "count_closedform",
    "counts_bruteforce_all",
    "counts_closedform_all",
    "sample_secrets",
    "trichotomy_check",
    "support_gap_predicted_paper",
    "support_gap_predicted_extended",
    "tightness_witness_search",
    "equivalence_check",
    "MAX_LEAKAGE_BITS",
    "min_entropy",
    "floor_bits",
    "barrier_table",
    "PipelineSpec",
    "CompositionReport",
    "compose",
    "Preset",
    "PRESETS",
    "get_preset",
]
