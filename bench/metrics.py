"""Every metric the benchmark reports, with unit, direction and expectations.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from a separate traced run and are named ``<module>.<function>.<stat>``;
``moves`` and ``on`` record, before any optimisation is measured, which
end-to-end metric each layer metric should move and on which workloads,
and ``flat_on`` the workloads where it should not move.  ``bytes`` is
the nbytes of returned arrays (the length of rendered text for
``report.render``): computed, not a measured memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

KEM, NTT, DSA = "mlkem-cli", "ntt-sweep", "mldsa-sampled"

UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "items": "count",
    "bytes": "bytes_computed",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end only: allowed share of worsening
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()
    flat_on: tuple[str, ...] = ()


END_TO_END = (
    Metric("wall_s", "s", "lower", bound=0.22),
    Metric("pairs_per_s", "pairs/s", "higher", bound=0.22),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("setup_s", "s", "lower", bound=0.25),
)

# Reported in the table and through the result's attempted/failed counts,
# not as a bounded metric: it is 0 on a correct program.
FAILED_RATIO = Metric("failed_ratio", "ratio", "lower")


def _layer(span: str, stats: str, moves: str, on: tuple, flat_on: tuple = ()) -> list:
    return [
        Metric(f"{span}.{stat}", UNITS[stat], "lower", None, tuple(moves.split()), on, flat_on)
        for stat in stats.split()
    ]


PER_LAYER = tuple(
    _layer("cli.main", "busy_s self_s", "wall_s", (KEM, NTT))
    + _layer(
        "preimage.counts_closedform_all",
        "calls busy_s bytes",
        "wall_s pairs_per_s peak_rss_mb",
        (KEM, DSA),
    )
    + _layer(
        "preimage.counts_bruteforce_all", "calls busy_s bytes", "wall_s peak_rss_mb", (DSA, KEM)
    )
    + _layer("preimage.MultiplicityProfile.from_counts", "calls busy_s", "wall_s", (KEM, DSA))
    + _layer("preimage.equivalence_check", "busy_s self_s", "wall_s pairs_per_s", (NTT,), (DSA,))
    + _layer(
        "gadgets.barrett_nat_eval_vec", "calls busy_s items", "wall_s pairs_per_s", (NTT,), (DSA,)
    )
    + _layer(
        "gadgets.barrett_algebraic_eval_vec",
        "calls busy_s items",
        "wall_s pairs_per_s",
        (NTT,),
        (DSA,),
    )
    + _layer("preimage.trichotomy_check", "self_s", "wall_s", (KEM,))
    + _layer("preimage.tightness_witness_search", "busy_s", "wall_s", (KEM,))
    + _layer("leakage.min_entropy", "calls busy_s", "wall_s", (KEM,))
    + _layer("pipeline.compose", "busy_s self_s", "wall_s", (KEM,))
    + _layer("report.render", "busy_s bytes", "wall_s", (KEM,))
    + [
        Metric("modring.ZqElem.created", "count", "lower", None, ("wall_s",), (KEM, NTT)),
        # Traced pass wall time over untraced pass wall time.
        Metric("trace.overhead_ratio", "ratio", "lower", on=(KEM, NTT, DSA)),
        # Traced pass wall time not covered by cli.main spans: capturing
        # and checking output, the benchmark's own loop.
        Metric("trace.loop_overhead_s", "s", "lower", on=(KEM, NTT, DSA)),
    ]
)
